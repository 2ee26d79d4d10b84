"""Operation ledger, percentiles and the metric sets the benchmark
reports."""

from __future__ import annotations

import math
import resource
import threading
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence

#: ``read_p90_ms`` is reported only from at least this many reads, so
#: that at least ten samples lie beyond the 90th percentile.
P90_MIN_SAMPLES = 100

#: Every end-to-end metric, as (name, unit). A workload without the
#: operation a metric is read from reports it as not applicable.
E2E_TABLE = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("cold_read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("analyze_p50_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("error_rate", "fraction"),
    ("peak_rss_mb", "MiB"),
)

#: Op kinds timed outside the measured window, which
#: ``throughput_ops_s`` leaves out: served cold reads come before it,
#: a case study's EXPLAIN ANALYZE after it.
OUTSIDE_WINDOW = ("cold_read", "analyze")

#: The subset every workload reports on every run, which the
#: BENCHMARK.json contract gates (each is never 0).
CONTRACT_E2E = ("setup_s", "read_p50_ms", "throughput_ops_s", "peak_rss_mb")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def p90_or_none(values: Sequence[float]) -> Optional[float]:
    """The 90th percentile, or None below :data:`P90_MIN_SAMPLES`."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return percentile(values, 90.0)


def peak_rss_mb() -> float:
    """Max resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Counts attempted and failed operations and keeps the latency of
    each successful one by kind. Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.wall_s = 0.0

    def record(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.attempted += 1
            self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, kind: str, error: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(error).__name__}: {error}")

    def verify(self, name: str, check: Callable[[], None]) -> None:
        """An untimed check outside the measured window (a reference
        answer, an end-of-run comparison): attempted, and failed when
        it raises."""
        try:
            check()
        except Exception as exc:
            self.fail(name, exc)
        else:
            with self._lock:
                self.attempted += 1

    def unrecord(self, kind: str, seconds: float,
                 error: BaseException) -> None:
        """Turn an op recorded as a success into a failure (its answer
        was checked after the measured window)."""
        with self._lock:
            self.latencies[kind].remove(seconds)
            self.attempted -= 1
        self.fail(kind, error)

    def timed(self, kind: str, fn: Callable[[], Any],
              check: Optional[Callable[[Any], None]] = None) -> Any:
        """Run one operation; its latency covers ``fn`` only, the
        ``check`` of its answer runs after the clock stops. Returns the
        answer, or None when the op raised or failed its check."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(kind, exc)
            return None
        dt = time.perf_counter() - t0
        if check is not None:
            try:
                check(out)
            except Exception as exc:
                self.fail(kind, exc)
                return None
        self.record(kind, dt)
        return out

    def samples(self, kind: str) -> List[float]:
        with self._lock:
            return list(self.latencies.get(kind, ()))

    def ops(self, exclude: Sequence[str] = ()) -> int:
        """Successful operations, except those of the kinds in
        ``exclude``."""
        with self._lock:
            return sum(len(v) for k, v in self.latencies.items()
                       if k not in exclude)


def e2e_metrics(ledger: Ledger, setup_times: Sequence[float]
                ) -> Dict[str, Dict[str, Any]]:
    """All nine end-to-end metrics with unit and sample count; a
    metric a workload does not produce has value None."""
    def ms_p50(kind: str) -> Optional[float]:
        xs = ledger.samples(kind)
        return median(xs) * 1e3 if xs else None

    reads = ledger.samples("read")
    p90 = p90_or_none(reads)
    window_ops = ledger.ops(exclude=OUTSIDE_WINDOW)
    values = {
        "setup_s": (median(setup_times), len(setup_times)),
        "read_p50_ms": (ms_p50("read"), len(reads)),
        "read_p90_ms": (p90 * 1e3 if p90 is not None else None,
                        len(reads)),
        "cold_read_p50_ms": (ms_p50("cold_read"),
                             len(ledger.samples("cold_read"))),
        "write_p50_ms": (ms_p50("write"), len(ledger.samples("write"))),
        "analyze_p50_ms": (ms_p50("analyze"),
                           len(ledger.samples("analyze"))),
        "throughput_ops_s": (
            window_ops / ledger.wall_s if ledger.wall_s > 0 else None,
            window_ops,
        ),
        "error_rate": (
            ledger.failed / ledger.attempted if ledger.attempted else None,
            ledger.attempted,
        ),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return {
        name: {"value": values[name][0], "unit": unit,
               "samples": values[name][1]}
        for name, unit in E2E_TABLE
    }
