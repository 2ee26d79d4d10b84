"""Answer checks applied to every benchmark operation.

Two forms compare answers as multisets of rows. A :func:`digest` is
stable across processes and versions: the SHA-256 of the sorted
canonical rows, where numbers become floats rounded to 6 decimals (the
wire decodes cardinals as floats), timestamps their epoch seconds and
everything else its text; it pins golden answers. A
:func:`fingerprint` is cheap enough to take on every operation, and
compares answers within one process.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple


class OracleError(AssertionError):
    """An operation returned a wrong answer."""


def canon_value(value: Any) -> Any:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return round(float(value), 6)
    epoch = getattr(value, "epoch", None)
    if isinstance(epoch, (int, float)):
        return round(float(epoch), 6)
    return str(value)


def canon_row(row: Mapping[str, Any]) -> Tuple:
    return tuple(sorted((k, canon_value(v)) for k, v in row.items()))


def multiset(rows: Iterable[Mapping[str, Any]]) -> Counter:
    return Counter(canon_row(r) for r in rows)


def digest(rows: Iterable[Mapping[str, Any]]) -> str:
    h = hashlib.sha256()
    for row in sorted(canon_row(r) for r in rows):
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


def fingerprint(rows: Sequence[Mapping[str, Any]]) -> Tuple[int, int]:
    """The row count and the sum of the rows' hashes. Values compare
    exactly, as Python compares them (an int equals its float); string
    hashes differ between processes, so compare only fingerprints
    taken in one process."""
    return len(rows), sum(hash(frozenset(r.items())) for r in rows) \
        & 0xFFFFFFFFFFFFFFFF


def check(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def check_rows(rows: Sequence[Mapping[str, Any]],
               want: Tuple[int, int], what: str) -> None:
    """The answer has the expected :func:`fingerprint`."""
    got = fingerprint(rows)
    check(got[0] == want[0], f"{what}: {got[0]} rows, expected {want[0]}")
    check(got == want, f"{what}: rows differ from the reference answer")


def hottest_group(rows: Sequence[Mapping[str, Any]]) -> Tuple[Any, Any]:
    """The (application, rack) pair with the highest peak heat — the
    Fig 4 ranking, computed directly on the rows."""
    peak: Dict[Tuple[Any, Any], float] = {}
    for r in rows:
        key = (r["job_name"], r["rack"])
        if r["heat"] > peak.get(key, -math.inf):
            peak[key] = r["heat"]
    return max(peak, key=peak.__getitem__)


def window_mean(rows: Sequence[Mapping[str, Any]], field: str,
                start: float, end: float) -> float:
    vals = [r[field] for r in rows
            if field in r and start <= r["time"].epoch < end]
    return sum(vals) / len(vals) if vals else math.nan


def settled_frequencies(rows: Sequence[Mapping[str, Any]],
                        jobs) -> Dict[str, List[float]]:
    """Mean active frequency per run after it settles (120 s in), by
    workload name — the Fig 6 table, as in examples/cpu_throttling.py."""
    out: Dict[str, List[float]] = {}
    for job in sorted(jobs, key=lambda j: j.start):
        out.setdefault(job.workload.name, []).append(
            window_mean(rows, "active_frequency", job.start + 120.0,
                        job.end)
        )
    return out


def groups_close(got: Mapping[Tuple, Any], want: Mapping[Tuple, Any],
                 what: str) -> None:
    """Same group keys, and every value ``math.isclose``."""
    def key(k: Tuple) -> Tuple:
        return tuple(canon_value(v) for v in k)

    wanted = {key(k): v for k, v in want.items()}
    check({key(k) for k in got} == set(wanted),
          f"{what}: group keys differ ({len(got)} groups vs "
          f"{len(wanted)} expected)")
    for k, v in got.items():
        w = wanted[key(k)]
        if isinstance(v, Mapping):
            check(set(v) == set(w), f"{what}: measures differ at {k}")
            pairs = [(v[m], w[m]) for m in v]
        else:
            pairs = [(v, w)]
        for a, b in pairs:
            check(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9),
                  f"{what}: {a} != {b} at {k}")
