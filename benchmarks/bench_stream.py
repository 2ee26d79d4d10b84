"""Streaming refresh benchmark: incremental vs full replay.

The claim the streaming subsystem makes: after a small append (<= 5%
of the standing dataset), refreshing a standing-query answer through
:class:`~repro.stream.DeltaPlan` delta execution costs O(delta) — far
less than replaying the whole derivation at the new watermark. This
benchmark measures both sides on the same subscription and writes
machine-readable evidence to ``benchmarks/results/BENCH_stream.json``:

- **incremental refresh** — ``QueryService.advance`` with a ~5% batch
  of appended rows: tail + scoped cache invalidation + delta refresh
  of the standing natural-join answer;
- **full replay** — the same plan executed from scratch with every
  feed input pinned at the identical watermarks (what every refresh
  would cost without delta execution);
- **correctness** — the refreshed standing answer must be
  multiset-identical to a fresh query over the final row set, and
  every refresh must actually have taken the delta path (asserted via
  the subscription's refresh counters, not assumed).

Timing uses the shared CI-interval machinery
(:mod:`repro.util.benchstats`), so the speedup gate compares interval
means, not single noisy runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py          # full
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke  # CI

Acceptance: incremental refresh >= 5x faster than full replay (>= 2x
under ``--smoke``, where CI boxes are noisy), identical answers, all
refreshes on the delta path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_stream.json")

# allow `python benchmarks/bench_stream.py` without PYTHONPATH
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import ScrubJaySession  # noqa: E402
from repro.datagen.synthetic import (  # noqa: E402
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import QueryService  # noqa: E402
from repro.util.benchstats import measure  # noqa: E402

JOIN_QUERY = (["compute nodes", "jobs"], ["power", "temperature"])


def make_feed_session(rows: int, keys: int) -> ScrubJaySession:
    sj = ScrubJaySession()
    left, right = keyed_tables(rows, num_keys=keys)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    return sj


def delta_rows(start: int, n: int, keys: int) -> List[Dict[str, Any]]:
    return [
        {
            "node": (start + i) % keys,
            "sample": 10_000_000 + start + i,
            "metric_a": float(start + i),
        }
        for i in range(n)
    ]


def _row_multiset(rows: List[Dict[str, Any]]):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items()))
        for row in rows
    )


def run_refresh_phase(
    rows: int, keys: int, delta: int, repeats: int
) -> Dict[str, Any]:
    session = make_feed_session(rows, keys)
    domains, values = JOIN_QUERY
    cursor = [0]
    try:
        with QueryService(session, num_workers=1) as svc:
            sub = svc.subscribe(domains, values)

            def one_incremental() -> float:
                batch = delta_rows(cursor[0], delta, keys)
                cursor[0] += delta
                t0 = time.perf_counter()
                svc.advance("samples", rows=batch)
                return time.perf_counter() - t0

            incr = measure(
                one_incremental, min_repeats=3,
                max_repeats=max(3, repeats), warmup=1,
            )
            advances = 1 + len(incr.samples)  # warmup + measured

            # full replay at the very same watermarks the standing
            # answer sits at — the cost every refresh would pay
            # without delta execution
            marks = dict(sub.watermarks)
            replay_out: List[Any] = []

            def one_replay() -> float:
                t0 = time.perf_counter()
                result = sub.delta_plan.execute_pinned(session, marks)
                out = result.collect()
                elapsed = time.perf_counter() - t0
                replay_out[:] = [out]
                return elapsed

            replay = measure(
                one_replay, min_repeats=3,
                max_repeats=max(3, repeats), warmup=1,
            )

            standing = sub.current()
            fresh = session.ask(domains, values).collect()
            answers_identical = (
                _row_multiset(standing.rows) == _row_multiset(fresh)
                == _row_multiset(replay_out[0])
            )
            streams = svc.snapshot().streams
            phase = {
                "base_rows": rows,
                "keys": keys,
                "delta_rows": delta,
                "delta_fraction": delta / rows,
                "advances": advances,
                "final_rows": rows + cursor[0],
                "incremental_s": {
                    "mean": incr.mean,
                    "ci_lo": incr.ci_low,
                    "ci_hi": incr.ci_high,
                    "samples": len(incr.samples),
                    "converged": incr.converged,
                },
                "replay_s": {
                    "mean": replay.mean,
                    "ci_lo": replay.ci_low,
                    "ci_hi": replay.ci_high,
                    "samples": len(replay.samples),
                    "converged": replay.converged,
                },
                "speedup": (
                    replay.mean / incr.mean if incr.mean > 0 else None
                ),
                "answers_identical": answers_identical,
                "delta_refreshes": sub.delta_refreshes,
                "replay_refreshes": sub.replay_refreshes,
                "all_refreshes_incremental": (
                    sub.delta_refreshes == advances
                    and sub.replay_refreshes == 0
                ),
                "streams": streams,
            }
    finally:
        session.close()
    return phase


def run_all(smoke: bool) -> Dict[str, Any]:
    if smoke:
        rows, keys, delta, repeats = 4_000, 64, 200, 5
        bar = 2.0
    else:
        rows, keys, delta, repeats = 20_000, 64, 1_000, 10
        bar = 5.0
    return {
        "figure": "BENCH_stream",
        "benchmark": "stream_refresh",
        "description": (
            "standing-query refresh after a <= 5% append: incremental "
            "delta execution vs full replay at identical watermarks, "
            "multiset-identical answers required"
        ),
        "smoke": smoke,
        "speedup_bar": bar,
        "refresh": run_refresh_phase(rows, keys, delta, repeats),
    }


def check(payload: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    ph = payload["refresh"]
    bar = payload["speedup_bar"]
    if not ph["answers_identical"]:
        problems.append(
            "standing answer diverged from the fresh replay answer"
        )
    if not ph["all_refreshes_incremental"]:
        problems.append(
            f"not every refresh took the delta path "
            f"(delta={ph['delta_refreshes']}, "
            f"replay={ph['replay_refreshes']}, "
            f"advances={ph['advances']})"
        )
    speedup = ph["speedup"]
    if speedup is None or speedup < bar:
        problems.append(
            f"incremental refresh is only {speedup!r}x faster than "
            f"full replay (acceptance bar: >= {bar}x)"
        )
    return problems


def write_json(payload: Dict[str, Any], path: str = JSON_PATH) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes and a relaxed 2x bar; exit non-zero on "
        "acceptance failures",
    )
    parser.add_argument(
        "--output", default=JSON_PATH, help="JSON output path"
    )
    args = parser.parse_args(argv)

    payload = run_all(smoke=args.smoke)
    path = write_json(payload, args.output)

    ph = payload["refresh"]
    print(
        f"base {ph['base_rows']} rows, delta {ph['delta_rows']} "
        f"({ph['delta_fraction']:.1%} per refresh)"
    )
    print(
        f"incremental {ph['incremental_s']['mean']*1e3:8.2f} ms   "
        f"replay {ph['replay_s']['mean']*1e3:8.2f} ms   "
        f"speedup {ph['speedup']:.1f}x "
        f"(bar {payload['speedup_bar']}x)"
    )
    print(
        f"refreshes: delta={ph['delta_refreshes']} "
        f"replay={ph['replay_refreshes']} "
        f"identical={ph['answers_identical']}"
    )
    print(f"wrote {path}")

    problems = check(payload)
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
