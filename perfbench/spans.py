"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public functions
from the benchmark's own code; nothing inside ``src/`` is instrumented.
Each span has a name, start, end, parent and a request id shared by
every span of one request. Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of
    ``intervals`` (each clipped to the window first)."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class SpanRecorder:
    """Thread-safe span recorder; each thread keeps its own parent
    stack, so concurrent client threads produce separate trees."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        rec = Span(
            sid, name, self._clock(), 0.0,
            parent.span_id if parent is not None else None,
            parent.request if parent is not None else sid,
        )
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def durations(self, name: str) -> List[float]:
        """Wall durations (s) of every finished span called ``name``."""
        with self._lock:
            return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, List[float]]:
        """Self time (s) of every span, by name: its duration minus the
        part of its interval that its child spans cover."""
        with self._lock:
            spans = list(self.spans)
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: Dict[str, List[float]] = {}
        for s in spans:
            kids = children.get(s.span_id, ())
            out.setdefault(s.name, []).append(
                s.duration - covered(s.start, s.end, kids)
            )
        return out

    def dump(self, path: str) -> None:
        with self._lock:
            spans = [asdict(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": spans}, f)

