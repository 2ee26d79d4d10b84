"""Incremental derivation: delta execution over DerivationPlans.

The core observation (following the incremental view-maintenance
lineage: provenance-on-Spark showed maintaining derived structures
beats recomputation for append-mostly workloads) is that ScrubJay
plans are largely built from **union-distributive** operators. For a
plan ``f`` and an appended delta ``Δ`` to input ``X``,

    f(X ∪ Δ, Y) = f(X, Y) ∪ f(Δ, Y)

holds whenever every operator on the path from ``X``'s leaf to the
root is row-local (filter/project/rename/convert/explode/ratio) or a
natural join whose *other* side is unchanged (a join is linear in
each argument separately). Then refreshing a standing answer after an
append means executing the same plan with the changed leaf bound to
just the delta rows — typically orders of magnitude less data — and
unioning into the previous answer (or merging aggregation partials
via :func:`~repro.analysis.aggregate.merge_group_partials`).

Operators that need cross-row context — ``derive_rate`` (adjacent
samples), ``interpolation_join`` (neighbors straddle the watermark),
or a combine with changed data on *both* sides — break the identity;
those plans fall back to **scoped replay**: a full recompute pinned at
the new watermark (time-windowed derivations only ever need the
window reaching back ``max window`` before it). Either way the choice
is recorded as a :class:`~repro.rdd.stats.DeltaDecision` on the
ExecutionReport, so the incremental path is *asserted*, not assumed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.dataset import ScrubJayDataset
from repro.core.pipeline import (
    CombineNode,
    DerivationPlan,
    LoadNode,
    PlanNode,
    ScanNode,
    TransformNode,
)
from repro.errors import PipelineError
from repro.rdd.rdd import ScanRDD
from repro.rdd.stats import DeltaDecision

#: transformations that are row-local — applying them to a union of
#: row sets equals the union of applying them to each set
DELTA_SAFE_TRANSFORMS = frozenset({
    "filter_equals",
    "filter_range",
    "rename_field",
    "convert_units",
    "select_fields",
    "explode_discrete",
    "explode_continuous",
    "derive_ratio",
    # snapping a timestamp to its grain bucket is row-local
    "bucket_time",
})

#: combinations linear in each argument separately (delta-safe when
#: exactly one side's inputs changed)
DELTA_SAFE_COMBINES = frozenset({"natural_join"})


def pinned_catalog(
    session, watermarks: Dict[str, int]
) -> Dict[str, ScrubJayDataset]:
    """The session catalog with each feed dataset in ``watermarks``
    swapped for a frozen snapshot bounded at its watermark — execution
    against it can never observe rows a concurrent writer appends
    mid-flight (the no-mixed-watermark rule)."""
    catalog = session.snapshot()
    for name, mark in watermarks.items():
        feed = session.feeds.get(name)
        if feed is None:
            continue
        src = feed.source.bounded(mark)
        src.name = name
        ds = ScrubJayDataset(
            ScanRDD(session.ctx, src),
            src.schema(),
            name,
            provenance={"op": "scan",
                        "source": type(src).__name__,
                        "name": name, "bounded_at": mark},
        )
        ds.source = src
        catalog[name] = ds
    return catalog


class RefreshRound(NamedTuple):
    """The outcome of one :meth:`DeltaPlan.refresh` round."""

    #: ``"delta"`` (fold ``dataset`` into the standing answer) or
    #: ``"replay"`` (``dataset`` replaces it)
    mode: str
    #: every feed's watermark the new answer is pinned at
    targets: Dict[str, int]
    dataset: ScrubJayDataset
    #: appended rows the delta path read (0 on replay)
    delta_rows: int


class DeltaPlan:
    """A :class:`DerivationPlan` plus its incremental-execution brain.

    ``classify(changed)`` decides delta vs replay for a set of changed
    dataset names; ``refresh`` runs one pinned round of either path.
    This is the one refresh policy: the serve layer's subscriptions
    and the metrics layer's rollups own only the union/merge (or
    replace) of the round's output into their standing answer and
    the watermark bookkeeping.
    """

    def __init__(self, plan: DerivationPlan) -> None:
        self.plan = plan

    def dataset_names(self) -> List[str]:
        return self.plan.dataset_names()

    # -- classification ------------------------------------------------

    def classify(
        self, changed: Sequence[str]
    ) -> Tuple[str, List[DeltaDecision]]:
        """(``"delta"`` | ``"replay"`` | ``"none"``, decisions).

        ``"none"`` means no plan input changed — the standing answer
        is already current. ``"delta"`` means every operator on every
        changed path is union-distributive. Decisions cover each
        operator examined on a changed path; on ``"replay"`` the
        offending operators carry the reason.
        """
        touched_names: Set[str] = set(changed) & set(self.dataset_names())
        if not touched_names:
            return "none", []
        decisions: List[DeltaDecision] = []
        safe = [True]

        def walk(node: PlanNode) -> bool:
            # True when the subtree reads a changed dataset
            if isinstance(node, (LoadNode, ScanNode)):
                return node.dataset_name in touched_names
            if isinstance(node, TransformNode):
                touched = walk(node.input)
                if touched:
                    op = node.derivation.op_name
                    if op in DELTA_SAFE_TRANSFORMS:
                        decisions.append(DeltaDecision(
                            op, "delta",
                            "row-local: distributes over row-set union",
                        ))
                    else:
                        safe[0] = False
                        decisions.append(DeltaDecision(
                            op, "replay",
                            f"{op} needs cross-row context (not "
                            "union-distributive)",
                        ))
                return touched
            if isinstance(node, CombineNode):
                lt = walk(node.left)
                rt = walk(node.right)
                if lt or rt:
                    op = node.derivation.op_name
                    if lt and rt:
                        safe[0] = False
                        decisions.append(DeltaDecision(
                            op, "replay",
                            "changed datasets feed both sides of the "
                            "combine",
                        ))
                    elif op in DELTA_SAFE_COMBINES:
                        decisions.append(DeltaDecision(
                            op, "delta",
                            "join is linear in its single changed side",
                        ))
                    else:
                        safe[0] = False
                        decisions.append(DeltaDecision(
                            op, "replay",
                            f"{op} reads neighbor rows across the "
                            "watermark (window/interpolation context)",
                        ))
                return lt or rt
            raise PipelineError(
                f"unknown plan node {type(node).__name__}"
            )

        walk(self.plan.root)
        return ("delta" if safe[0] else "replay"), decisions

    # -- execution -----------------------------------------------------

    def feed_names(self, session) -> Tuple[str, ...]:
        """The plan inputs that are live feeds of ``session``."""
        return tuple(
            n for n in self.dataset_names() if n in session.feeds
        )

    def execute_pinned(
        self, session, watermarks: Dict[str, int]
    ) -> ScrubJayDataset:
        """Full execution with every feed in ``watermarks`` bounded at
        its mark — never against live, still-growing sources. This is
        both a standing answer's initial computation and the scoped
        replay."""
        return session._execute(
            self.plan, pinned_catalog(session, watermarks)
        )

    def refresh(
        self,
        session,
        feed_names: Sequence[str],
        watermarks: Dict[str, int],
    ) -> Optional[RefreshRound]:
        """One refresh round from the answer pinned at ``watermarks``
        to the feeds' current watermarks, or None when no feed moved.

        Classifies the changed feeds and records the decisions on the
        session's ExecutionReport. On ``"delta"`` the plan runs with
        each changed leaf bound to only the rows committed in
        ``[old mark, target)`` and every unchanged feed pinned at its
        old mark; the caller unions/merges the output into the
        standing answer. On ``"replay"`` the whole plan runs at the
        target marks and the output replaces the answer. No
        derivation cache is used: delta bindings share plan
        fingerprints with full bindings, so caching would poison full
        executions.
        """
        targets = dict(watermarks)
        changed = set()
        for n in feed_names:
            feed = session.feeds.get(n)
            if feed is None:
                continue
            targets[n] = feed.watermark
            if targets[n] != watermarks.get(n):
                changed.add(n)
        if not changed:
            return None
        mode, decisions = self.classify(changed)
        self.record(getattr(session.ctx, "report", None), decisions)
        if mode != "delta":
            return RefreshRound(
                mode, targets, self.execute_pinned(session, targets), 0
            )
        catalog = pinned_catalog(session, {
            n: watermarks[n] for n in feed_names
            if n not in changed and n in watermarks
        })
        delta_rows = 0
        for n in sorted(changed):
            rows, _ = session.feeds[n].source.append_scan(
                watermarks.get(n, 0), targets[n]
            )
            delta_rows += len(rows)
            catalog[n] = ScrubJayDataset.from_rows(
                session.ctx, rows, session.dataset(n).schema, n
            )
        return RefreshRound(
            mode, targets, session._execute(self.plan, catalog),
            delta_rows,
        )

    def record(self, report, decisions: List[DeltaDecision]) -> None:
        """Publish classification decisions onto an ExecutionReport
        (mirrored into ``stream.delta.decisions`` metrics)."""
        if report is None:
            return
        for d in decisions:
            report.add(d)

    def __repr__(self) -> str:
        return f"DeltaPlan({self.plan!r})"
