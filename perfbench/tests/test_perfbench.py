"""Self-tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import measure
import oracle
from spans import Span, SpanRecorder, covered

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- spans -------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert covered(0, 10, [(1, 2), (4, 6)]) == 3
    assert covered(0, 10, [(-5, 1), (9, 15)]) == 2
    assert covered(0, 10, [(11, 12)]) == 0


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.span("read") as root:           # [0, 10]
        clock.now = 1.0
        with rec.span("solve"):              # [1, 3]
            clock.now = 3.0
        with rec.span("execute") as ex:      # [3, 8]
            clock.now = 4.0
            with rec.span("scan"):           # [4, 6]
                clock.now = 6.0
            clock.now = 8.0
        clock.now = 10.0
    selfs = rec.self_times()
    assert selfs["read"] == [10.0 - 2.0 - 5.0]
    assert selfs["solve"] == [2.0]
    assert selfs["execute"] == [5.0 - 2.0]
    assert selfs["scan"] == [2.0]
    # every span of the request shares the root's id
    assert {s.request for s in rec.spans} == {root.span_id}
    assert ex.parent == root.span_id
    assert rec.durations("read") == [10.0]


def test_self_time_with_overlapping_children():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.span("parent") as p:
        clock.now = 10.0
    # two children recorded from other threads overlap in time
    rec.spans += [Span(90, "a", 1.0, 5.0, p.span_id, p.span_id),
                  Span(91, "b", 3.0, 7.0, p.span_id, p.span_id)]
    assert rec.self_times()["parent"] == [10.0 - 6.0]


def test_dump_writes_every_span(tmp_path):
    rec = SpanRecorder()
    with rec.span("a"):
        with rec.span("b"):
            pass
    path = tmp_path / "spans.json"
    rec.dump(str(path))
    spans = json.loads(path.read_text())["spans"]
    assert sorted(s["name"] for s in spans) == ["a", "b"]


# -- measure -----------------------------------------------------------


def ledger_with_reads(n):
    ledger = measure.Ledger()
    for i in range(n):
        ledger.record("read", 0.001 * (i + 1))
    ledger.wall_s = 1.0
    return ledger


def test_read_p90_only_from_100_reads():
    table = measure.e2e_metrics(ledger_with_reads(99), [1.0])
    assert table["read_p90_ms"]["value"] is None
    assert table["read_p90_ms"]["samples"] == 99
    table = measure.e2e_metrics(ledger_with_reads(100), [1.0])
    assert table["read_p90_ms"]["value"] == pytest.approx(90.1)
    assert table["read_p50_ms"]["value"] == pytest.approx(50.5)


def test_e2e_table_names_units_and_error_rate():
    ledger = ledger_with_reads(3)
    ledger.fail("read", RuntimeError("boom"))
    table = measure.e2e_metrics(ledger, [0.2, 0.1, 0.3])
    assert [n for n, _ in measure.E2E_TABLE] == list(table)
    assert table["setup_s"]["value"] == 0.2
    assert table["error_rate"]["value"] == 0.25
    assert table["throughput_ops_s"]["value"] == 3.0
    assert table["write_p50_ms"]["value"] is None


def test_ledger_counts_a_failed_check_and_a_late_rejection():
    ledger = measure.Ledger()

    def bad(_):
        raise oracle.OracleError("wrong")

    assert ledger.timed("read", lambda: 1, bad) is None
    assert ledger.timed("read", lambda: 2) == 2
    assert (ledger.attempted, ledger.failed) == (2, 1)
    dt = ledger.samples("read")[0]
    ledger.unrecord("read", dt, oracle.OracleError("late"))
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert ledger.samples("read") == []
    ledger.verify("final", lambda: None)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_percentile():
    assert measure.percentile([3, 1, 2], 50) == 2
    assert measure.percentile([0, 10], 90) == 9


# -- oracle ------------------------------------------------------------


class Stamp:
    def __init__(self, epoch):
        self.epoch = epoch

    def __eq__(self, other):
        return isinstance(other, Stamp) and other.epoch == self.epoch

    def __hash__(self):
        return hash(self.epoch)


def heat_rows():
    return [
        {"job_name": "AMG", "rack": 17, "heat": 20.5, "num_nodes": 8,
         "time": Stamp(120.0)},
        {"job_name": "AMG", "rack": 17, "heat": 30.25, "num_nodes": 8,
         "time": Stamp(240.0)},
        {"job_name": "Qbox", "rack": 3, "heat": 2.125, "num_nodes": 1,
         "time": Stamp(120.0)},
    ]


def test_oracle_accepts_the_same_answer_in_any_order_and_encoding():
    rows = heat_rows()
    decoded = [dict(r, num_nodes=float(r["num_nodes"]))
               for r in reversed(rows)]
    assert oracle.digest(decoded) == oracle.digest(rows)
    oracle.check_rows(decoded, oracle.fingerprint(rows), "t")
    assert oracle.hottest_group(rows) == ("AMG", 17)


@pytest.mark.parametrize("perturb", [
    lambda rows: rows[0].update(heat=rows[0]["heat"] + 1e-3),
    lambda rows: rows[1].update(rack=16),
    lambda rows: rows[2].update(time=Stamp(121.0)),
    lambda rows: rows.append(dict(rows[0])),
    lambda rows: rows.pop(),
])
def test_oracle_rejects_a_perturbed_answer(perturb):
    rows = heat_rows()
    bad = [dict(r) for r in rows]
    perturb(bad)
    with pytest.raises(oracle.OracleError):
        oracle.check_rows(bad, oracle.fingerprint(rows), "t")
    assert oracle.digest(bad) != oracle.digest(rows)
    assert oracle.multiset(bad) != oracle.multiset(rows)


def test_groups_close_rejects_a_perturbed_group():
    want = {(0, Stamp(0.0)): {"m": 20.0}, (1, Stamp(0.0)): {"m": 21.0}}
    got = {(0, Stamp(0.0)): {"m": 20.0 + 1e-12}, (1, Stamp(0.0)): {"m": 21.0}}
    oracle.groups_close(got, want, "t")
    with pytest.raises(oracle.OracleError):
        oracle.groups_close({**got, (1, Stamp(0.0)): {"m": 21.01}}, want, "t")
    with pytest.raises(oracle.OracleError):
        oracle.groups_close({(0, Stamp(0.0)): {"m": 20.0}}, want, "t")


# -- contract ----------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_code_reports():
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(measure.CONTRACT_E2E)
    units = dict(measure.E2E_TABLE)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(workloads.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_load_limits():
    import workloads

    n = workloads.nproc()
    assert workloads.CLIENTS <= n
    workloads.check_load_limits(n, n, n)
    with pytest.raises(RuntimeError):
        workloads.check_load_limits(n + 1, 1, 1)
    with pytest.raises(RuntimeError):
        workloads.check_load_limits(1, 1, n + 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_heat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_one_short_run_prints_a_correct_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_freq",
         "--seed", "13", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(measure.CONTRACT_E2E)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_feed_batches_continue_past_the_end_of_the_dat():
    import workloads

    w = workloads.FeedRefresh(11, None)
    w.setup()
    try:
        w.prepare(measure.Ledger())
        start = w.pushed[-1]["time"].epoch
        remaining = len(w.dat.rows(workloads.FEED)) - len(w.pushed)
        n = remaining // workloads.BATCH_ROWS + 3
        for i in range(n):
            batch = w.next_batch()
            assert len(batch) == workloads.BATCH_ROWS
            times = {r["time"].epoch for r in batch}
            assert times == {start + (i + 1) * workloads.TEMPERATURE_PERIOD}
    finally:
        w.teardown()
