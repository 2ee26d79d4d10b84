#!/usr/bin/env python3
"""Run the benchmark: the paper's case-study queries, served answers
and feed refresh, end to end or split by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig5_heat --seed 11 --trace 0
    python3 perfbench/run.py --workload all --seed 11      # every workload

One workload runs in this process. Several (``all`` or a comma list)
run one process each, so ``peak_rss_mb`` is per workload. Each run
prints a table of every end-to-end metric with its unit and sample
count (or, with ``--trace 1``, every per-layer metric), and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

NAMES = ("fig5_heat", "fig7_freq", "serve_fig5", "feed_refresh")
REPORT_TAG = "REPORT "


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="a workload name, a comma list, or 'all' "
                        f"({', '.join(NAMES)})")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's datagen "
                        "default, 11 for DAT1 and 13 for DAT2)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    args = p.parse_args(argv)
    names = NAMES if args.workload == "all" else tuple(
        args.workload.split(","))
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        p.error(f"unknown workload(s) {unknown}; choose from {NAMES}")
    args.names = names
    return args


def fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(report: Dict[str, Any]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']:g}  trace {report['trace']}  "
          f"{report['info']}")
    print(f"  {'metric':50} {'value':>12} {'unit':>9} {'samples':>8}")
    for name, m in report["table"].items():
        samples = fmt(m["samples"]) if "samples" in m else ""
        print(f"  {name:50} {fmt(m['value']):>12} {m['unit']:>9} "
              f"{samples:>8}")
    for err in report["errors"]:
        print(f"  FAILED {err}")


def run_one(name: str, seed: Optional[int], seconds: float,
            trace: bool) -> None:
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # the rollup store's scratch directory stays inside the checkout
    tempfile.tempdir = os.path.join(OUT, "tmp")
    import measure
    import workloads

    if seed is None:
        seed = workloads.WORKLOADS[name].default_seed
    trace_path = (os.path.join(OUT, f"spans-{name}-seed{seed}.json")
                  if trace else None)
    res = workloads.run_workload(name, seed, seconds, trace_path)
    ledger = res["ledger"]
    if trace:
        table = {
            n: {"value": res["layers"].get(n, 0.0), "unit": unit}
            for n, unit in workloads.LAYER_METRICS
        }
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in table.items()}
    else:
        table = measure.e2e_metrics(ledger, res["setup_times"])
        metrics = {n: {"value": table[n]["value"], "unit": table[n]["unit"]}
                   for n in measure.CONTRACT_E2E}
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "info": res["info"], "table": table,
              "errors": ledger.errors}
    print_table(report)
    print(REPORT_TAG + json.dumps(report))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))


def run_many(args: argparse.Namespace) -> int:
    """Each workload in its own process; print every table, then one
    JSON object with each workload's result line."""
    results: Dict[str, Any] = {}
    status = 0
    for name in args.names:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        report = next(json.loads(line[len(REPORT_TAG):]) for line in lines
                      if line.startswith(REPORT_TAG))
        print_table(report)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if len(args.names) > 1:
        return run_many(args)
    run_one(args.names[0], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
