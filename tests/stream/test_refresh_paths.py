"""Both refresh paths, delta and scoped replay, for standing
subscriptions and for rollups, in both execution modes: after a feed
advance each standing answer equals a fresh query at the same
watermark, and the refresh took the path its plan dictates."""

from __future__ import annotations

import pytest

from repro import Query, ScrubJaySession, TuningProfile
from repro.serve import QueryService

from tests.conftest import (
    JOBS_SCHEMA,
    LAYOUT_SCHEMA,
    TEMPS_SCHEMA,
    jobs_rows,
    layout_rows,
    temps_rows,
)
from tests.metrics.conftest import assert_groups_equal
from tests.serve.conftest import row_multiset

FEED = "rack_temperatures"
EARLY = [r for r in temps_rows() if r["time"].epoch < 400.0]
LATE = [r for r in temps_rows() if r["time"].epoch >= 400.0]

#: per refresh path, a query whose plan takes it: a natural join is
#: linear in its changed side (delta); the Fig 5 interpolation join
#: reads neighbour rows across the watermark (replay)
SUBSCRIPTION_QUERIES = {
    "delta": Query.of(["compute nodes", "time"], ["temperature"]),
    "replay": Query.of(["jobs", "racks"], ["applications", "heat"]),
}
ROLLUP_MEASURES = {"delta": ("temperature", "compute nodes"),
                   "replay": ("heat", "jobs")}

PATHS = pytest.mark.parametrize("mode", ["delta", "replay"])
MODES = pytest.mark.parametrize("columnar", [False, True],
                                ids=["row", "columnar"])


def _session(columnar, temps=None):
    sj = ScrubJaySession(TuningProfile(columnar=columnar))
    sj.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log")
    sj.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
    if temps is None:
        sj.ingest().feed(TEMPS_SCHEMA, rows=EARLY).tail(FEED)
    else:
        sj.register_rows(temps, TEMPS_SCHEMA, FEED)
    return sj


@MODES
@PATHS
def test_subscription_refresh_equals_fresh_query(mode, columnar):
    sj = _session(columnar)
    svc = QueryService(sj, num_workers=1)
    try:
        query = SUBSCRIPTION_QUERIES[mode]
        sub = svc.subscribe(query)
        sj.ctx.report.clear()
        assert svc.advance(FEED, rows=LATE)["subscriptions_refreshed"] == 1
        # the refresh ran in the session's execution mode
        assert bool(sj.ctx.report.kernels()) == columnar
        cur = sub.current()
        assert cur.refresh_mode == mode
        assert (sub.delta_refreshes, sub.replay_refreshes) == (
            (1, 0) if mode == "delta" else (0, 1)
        )
        assert svc.snapshot().streams[f"refresh_{mode}"] == 1
        assert cur.watermarks == {FEED: len(EARLY) + len(LATE)}
        fresh = sj.ask(query).collect()
        assert fresh and row_multiset(cur.rows) == row_multiset(fresh)
    finally:
        svc.close()
        sj.close()


@MODES
@PATHS
def test_rollup_refresh_equals_fresh_query(mode, columnar):
    dimension, per = ROLLUP_MEASURES[mode]

    def metric(s):
        return s.query().measure(dimension, "mean").per(per).grain("10m")

    sj = _session(columnar)
    truth = _session(False, temps=EARLY + LATE)
    try:
        rollup = sj.rollup("r", metric(sj))
        sj.ctx.report.clear()
        sj.feed(FEED).push(LATE)
        assert bool(sj.ctx.report.kernels()) == columnar
        assert (rollup.refreshes, rollup.delta_refreshes) == (
            (1, 1) if mode == "delta" else (1, 0)
        )
        assert rollup.watermarks == {FEED: len(EARLY) + len(LATE)}
        query = metric(truth).build()
        want = truth.ask(query)
        assert want.decision.route == "raw" and want.groups
        assert_groups_equal(rollup.answer(query), want.groups)
    finally:
        sj.close()
        truth.close()
