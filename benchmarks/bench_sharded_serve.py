"""Sharded serve-tier benchmark: prune-aware scale-out QPS.

Measures the throughput of ``session.serve(shards=N)`` on a
partition-prunable workload — eq-filtered queries over a dataset
hash-sharded on the filtered key — at 1 shard vs 4 shards, and writes
``benchmarks/results/BENCH_sharded.json``.

The point being demonstrated is *routing*, not parallelism: this
harness may run on a single core, where process fan-out alone buys
nothing. Each eq-filtered query can only match rows on the one shard
that owns its key's hash, so the router's
``partition_may_match``-based pruning dispatches it to exactly 1 of N
shards, which scans 1/N of the rows — the fleet answers ~N× the
queries per second even with every shard sharing one core. The gate
requires ≥3× at 4 shards (smoke mode relaxes it — CI boxes are noisy
and small — but still requires a real win and exact answer
equivalence).

Timing uses the adaptive stopping rule of
:mod:`repro.util.benchstats`: batches repeat until the 95% CI on the
batch time is tight or the cap is hit, and the CI bounds land in the
JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharded_serve.py           # full
    PYTHONPATH=src python benchmarks/bench_sharded_serve.py --smoke   # CI gate
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_sharded.json")

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import ScrubJaySession  # noqa: E402
from repro.core.query import FilterTerm  # noqa: E402
from repro.datagen.synthetic import (  # noqa: E402
    KEYED_LEFT_SCHEMA,
    keyed_tables,
)
from repro.util.benchstats import summarize  # noqa: E402

DOMAINS = ["compute nodes"]
VALUES = ["power"]


def row_multiset(rows: List[Dict[str, Any]]):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items()))
        for row in rows
    )


def _filters(key: int):
    return (FilterTerm("compute nodes", "eq", value=key),)


def make_fleet(rows, shards: int):
    """A session + ShardRouter over ``shards`` processes, with the
    samples table hash-sharded on its key column. Result caches are
    minimized on both tiers so the measured phase scatters and scans
    instead of replaying memoized answers."""
    sj = ScrubJaySession()
    sj.register_rows(rows, KEYED_LEFT_SCHEMA, name="samples")
    router = sj.serve(
        shards=shards,
        shard_on={"samples": ["node"]},
        num_workers=1,
        result_cache_entries=1,
        shard_service={"result_cache_entries": 1, "num_workers": 1},
    )
    return sj, router


def _batch_time(router, num_keys: int, batch: int) -> float:
    start = time.perf_counter()
    for i in range(batch):
        k = (i * 7) % num_keys
        router.query(DOMAINS, VALUES, filters=_filters(k))
    return time.perf_counter() - start


def bench_interleaved(
    routers: Dict[int, Any],
    num_keys: int,
    batch: int,
    repeat_cap: int,
    rel_ci: float = 0.05,
) -> Dict[int, Any]:
    """Time batches of cache-busting eq-filtered queries against every
    fleet, *interleaved* round-robin rather than one fleet at a time.

    On a shared box the machine's speed drifts over the seconds a
    benchmark takes; measuring fleet A completely before fleet B folds
    that drift straight into the A/B ratio. Interleaving gives every
    fleet a sample from each window of machine state, so drift cancels
    out of the ratio. Sampling stops when every fleet's 95% CI is
    tight (the benchstats stopping rule) or at ``repeat_cap``.
    """
    samples: Dict[int, List[float]] = {n: [] for n in routers}
    for n, router in routers.items():  # warmup batch per fleet
        _batch_time(router, num_keys, batch)
    while True:
        for n, router in routers.items():
            samples[n].append(_batch_time(router, num_keys, batch))
        done = len(next(iter(samples.values())))
        if done >= max(1, repeat_cap):
            break
        if done >= 3 and repeat_cap > 2:
            stats = {n: summarize(s) for n, s in samples.items()}
            if all(t.rel_halfwidth <= rel_ci for t in stats.values()):
                for t in stats.values():
                    t.converged = True
                return {n: stats[n] for n in routers}
    return {n: summarize(s) for n, s in samples.items()}


def run(
    rows: int,
    num_keys: int,
    batch: int,
    repeat_cap: int,
    shard_counts: Sequence[int] = (1, 4),
) -> Dict[str, Any]:
    left, _ = keyed_tables(rows, num_keys=num_keys)
    fleets: Dict[int, Dict[str, Any]] = {}
    answers: Dict[int, Dict[int, Any]] = {}
    live: Dict[int, Any] = {}
    sessions: Dict[int, Any] = {}
    try:
        for n in shard_counts:
            sessions[n], live[n] = make_fleet(left, n)
            # warm the plan caches (one query per distinct key — each
            # filter value is its own plan-cache entry) and record the
            # answer multisets for the equivalence check
            answers[n] = {
                k: row_multiset(
                    live[n].query(
                        DOMAINS, VALUES, filters=_filters(k)
                    ).collect()
                )
                for k in range(num_keys)
            }
        timings = bench_interleaved(live, num_keys, batch, repeat_cap)
        for n in shard_counts:
            timing = timings[n]
            router = live[n]
            snap = router.snapshot()
            fleets[n] = {
                "qps": batch / timing.mean,
                "qps_best": batch / timing.best,
                # time CI inverts into a qps CI (high time -> low qps)
                "qps_ci": [
                    batch / timing.ci_high
                    if timing.ci_high > 0 else None,
                    batch / timing.ci_low
                    if timing.ci_low > 0 else None,
                ],
                "batch": batch,
                "timing": timing.as_dict(),
                "routing": snap.shards.get("routing", {}),
                "router_latency_s": snap.latency_s,
                # one aggregate sanity answer per fleet: the
                # scatter-gather partial-merge path must agree across
                # shard counts too
                "aggregate": {
                    str(k): v
                    for k, v in sorted(router.aggregate(
                        DOMAINS, VALUES,
                        group_by=["node"], value_field="metric_a",
                        how="mean",
                    ).items())
                },
            }
    finally:
        for n in live:
            live[n].close()
        for n in sessions:
            sessions[n].close()

    base = shard_counts[0]
    mismatched = [
        k for k in answers[base]
        if any(answers[n][k] != answers[base][k]
               for n in shard_counts[1:])
    ]
    # merging per-shard partial sums reorders float additions, so the
    # grouped means may differ from the single-shard answer at machine
    # epsilon; anything beyond a tight relative tolerance is a bug
    aggregates_match = all(
        fleets[n]["aggregate"].keys() == fleets[base]["aggregate"].keys()
        and all(
            math.isclose(v, fleets[base]["aggregate"][k], rel_tol=1e-9)
            for k, v in fleets[n]["aggregate"].items()
        )
        for n in shard_counts[1:]
    )
    speedups = {
        str(n): fleets[n]["qps"] / fleets[base]["qps"]
        for n in shard_counts
        if fleets[base]["qps"] > 0
    }
    return {
        "figure": "BENCH_sharded",
        "benchmark": "sharded_serve_prune_aware_qps",
        "description": (
            "eq-filtered queries over a hash-sharded dataset; the "
            "router prunes to the one owning shard per query, so N "
            "shards scan 1/N rows each — qps scales without extra "
            "cores. CI bounds from the adaptive stopping rule "
            "(repro.util.benchstats)."
        ),
        "rows": rows,
        "num_keys": num_keys,
        "shard_counts": list(shard_counts),
        "fleets": {str(n): fleets[n] for n in shard_counts},
        "speedups": speedups,
        "answers_match": not mismatched,
        "mismatched_keys": mismatched[:10],
        "aggregates_match": aggregates_match,
    }


def check_gate(payload: Dict[str, Any], min_speedup: float) -> List[str]:
    problems: List[str] = []
    if not payload["answers_match"]:
        problems.append(
            "sharded fleet answers diverge from the 1-shard fleet at "
            f"keys {payload['mismatched_keys']}"
        )
    if not payload["aggregates_match"]:
        problems.append(
            "scatter-gathered aggregates diverge across shard counts"
        )
    top = str(max(payload["shard_counts"]))
    speedup = payload["speedups"].get(top, 0.0)
    if speedup < min_speedup:
        problems.append(
            f"{top}-shard fleet reached only {speedup:.2f}x the "
            f"1-shard qps (gate: {min_speedup:.1f}x)"
        )
    routing = payload["fleets"][top].get("routing", {})
    if routing.get("pruned", 0) <= 0:
        problems.append(
            "routing pruned no shard dispatches — prune-aware routing "
            "is not engaging on an eq-filtered workload"
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
        help="small workload and a relaxed speedup gate (CI)",
    )
    parser.add_argument("--output", default=JSON_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        rows, num_keys, batch, cap, gate = 6_000, 32, 12, 2, 1.5
    else:
        rows, num_keys, batch, cap, gate = 48_000, 192, 16, 20, 3.0

    payload = run(rows, num_keys, batch, cap)
    payload["smoke"] = bool(args.smoke)
    payload["gate_speedup"] = gate
    path = write_json(payload, args.output)

    for n in payload["shard_counts"]:
        f = payload["fleets"][str(n)]
        # an unbounded end of the CI is stored as None
        lo, hi = (
            "inf" if x is None else f"{x:.1f}" for x in f["qps_ci"]
        )
        print(
            f"{n} shard(s): {f['qps']:.1f} qps "
            f"(ci [{lo}, {hi}], "
            f"{f['timing']['repeats']} batches, "
            f"converged={f['timing']['converged']}) "
            f"routing={f['routing']}"
        )
    top = str(max(payload["shard_counts"]))
    print(
        f"speedup: {payload['speedups'][top]:.2f}x "
        f"(gate {gate:.1f}x), answers_match={payload['answers_match']}"
    )
    print(f"wrote {path}")

    problems = check_gate(payload, gate)
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
