"""Sharded scale-out serve tier: a shard-router front-end over a
fleet of single-owner :class:`~repro.serve.QueryService` processes.

One process per Python interpreter means one GIL and one memory
budget; past a point, a bigger serve box stops helping. This module
scales *out* instead: ``session.serve(shards=N)`` forks N shard
processes (times an optional replication factor), each running its
own full session + :class:`QueryService` + NDJSON
:class:`~repro.serve.wire.QueryServer`, and fronts them with a
:class:`ShardRouter` — a :class:`QueryService` subclass that keeps the
*stateless-per-row* layers (admission control, per-tenant fairness,
plan cache, result cache) and replaces only the execution hooks with
prune-aware scatter-gather over the fleet.

Placement and routing
---------------------
Datasets named in ``shard_on`` are hash-partitioned: each row goes to
shard ``portable_hash(key_tuple) % N`` over its ``shard_on`` columns
(the same process-stable :func:`~repro.rdd.shuffle.portable_hash` the
shuffle layer buckets by, in strict mode — a key type without a
portable hash is a routing error, not a silent misroute). Datasets
not named are replicated whole to every shard, so joins against small
lookup tables stay shard-local. The router records which key tuples
landed on which shard, and at query time reuses the pushdown layer's
:meth:`~repro.sources.predicate.ColumnPredicate.partition_may_match`
oracle: a solved plan's :class:`~repro.core.pipeline.ScanNode`
predicates are tested against each shard's key set, and shards that
provably cannot match are never dispatched to. An eq-filtered query
over a sharded dataset therefore touches exactly one shard — which is
what makes an N-shard fleet answer a prunable workload ~N× faster
even when shards share cores, since each dispatched shard scans 1/N
of the rows.

Two sharded datasets may be combined in one plan only when they are
sharded on the *same* columns (co-sharded); otherwise matching rows
would live on different shards and per-shard execution would silently
drop join matches, so the router raises
:class:`~repro.errors.ShardRoutingError` instead.

Consistency
-----------
Shard catalogs replicate from the router over the wire ops
(``register``/``drop``/``define_*``); every mutation and every shard
response carries the shard's ``catalog_version`` and
``state_fingerprint`` stamp. The router records the fleet's settled
stamp after each mutation; a scatter whose responses disagree with it
(a query fanned out mid-mutation) raises
:class:`~repro.errors.ShardStaleReadError`, which the base service
retry loop re-plans and re-scatters once the fleet settles. A shard
whose post-mutation fingerprint diverges from the router's session
(non-replicable state: session-local expert derivations, direct
dictionary edits) fails loudly with
:class:`~repro.errors.ShardStateError`.

Fault tolerance
---------------
``replication=R`` forks R processes per shard index; replica ``r>0``
of shard ``j`` holds exactly the rows of primary ``j``. A shard
request that fails at the transport level (dead process, refused or
reset connection) fails over to the next replica of the same index
before surfacing :class:`~repro.errors.ShardError`; per-shard deadline
budgets shrink as a sequential scatter progresses so one slow shard
cannot spend another's time.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.aggregate import (
    finalize_group_partials,
    merge_group_partials,
)
from repro.config import diff as profile_diff
from repro.core.dataset import ScrubJayDataset
from repro.core.pipeline import LoadNode, ScanNode
from repro.core.query import Query
from repro.core.semantics import Schema
from repro.errors import (
    ShardError,
    ShardRoutingError,
    ShardStaleReadError,
    ShardStateError,
    StaleRefreshError,
)
from repro.rdd.shuffle import portable_hash
from repro.serve.service import (
    AggregateSpec,
    QueryService,
    QueryTicket,
)
from repro.serve.subscribe import Subscription
from repro.serve.wire import (
    QueryClient,
    WireError,
    decode_groups,
    decode_rows,
    encode_rows,
)
from repro.stream import DeltaPlan

__all__ = [
    "ShardConfig",
    "ShardHandle",
    "ShardPlacement",
    "ShardRouter",
]


# ----------------------------------------------------------------------
# shard process
# ----------------------------------------------------------------------


@dataclass
class ShardConfig:
    """Everything a shard process needs to build its service.

    ``fault`` (a kwargs dict for
    :class:`~repro.rdd.executors.FaultInjectingExecutor`) wraps the
    shard's executor in deterministic fault injection — the chaos knob
    the resilience tests turn.
    """

    executor: str = "serial"
    num_workers: Optional[int] = None
    fault: Optional[Dict[str, Any]] = None
    service_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: router-session TuningProfile state (engine/adaptive knobs only,
    #: as a :meth:`~repro.config.TuningProfile.to_json_dict` dict) the
    #: shard session is built with, so the fleet plans consistently
    profile: Optional[Dict[str, Any]] = None


def _shard_profile_state(session) -> Optional[Dict[str, Any]]:
    """The slice of the router session's profile a shard inherits.

    Planner-facing knobs (``engine.*``, ``adaptive.*``) travel: a
    shard that broadcast where the router would shuffle gives the
    fleet inconsistent per-shard plans and timings. Everything else
    stays shard-local — the shard's executor comes from
    :class:`ShardConfig`, ``session.cache_dir`` must not collide with
    the router's on-disk cache, serve knobs arrive via
    ``service_kwargs``, and shards never run their own tuner
    (``tuning.*`` stays default-off; the router's closed loop pushes
    tuned values through ``sync`` instead).
    """
    profile = getattr(session, "profile", None)
    if profile is None:
        return None
    state = profile.to_json_dict()

    def keep(name: str) -> bool:
        return name.startswith(("engine.", "adaptive."))

    state["values"] = {
        n: v for n, v in state["values"].items() if keep(n)
    }
    state["provenance"] = {
        n: p for n, p in state["provenance"].items() if keep(n)
    }
    state["pinned"] = [n for n in state["pinned"] if keep(n)]
    return state


def _shard_main(conn, config: ShardConfig) -> None:
    """Entry point of one shard process: fresh session, one service,
    one wire server; report the bound address, then park until told to
    stop (or until the parent end of the pipe disappears)."""
    # Imported here, not at module top: the parent imports this module
    # through repro.serve, and a lazy import keeps the fork cheap and
    # cycle-free.
    from repro.config import TuningProfile
    from repro.rdd.context import SJContext
    from repro.rdd.executors import FaultInjectingExecutor, make_executor
    from repro.serve.wire import QueryServer
    from repro.session import ScrubJaySession

    server = None
    session = None
    service = None
    try:
        profile = (
            TuningProfile.from_json_dict(config.profile)
            if config.profile
            else TuningProfile()
        )
        if config.fault:
            inner = make_executor(config.executor, config.num_workers)
            session = ScrubJaySession(
                profile,
                ctx=SJContext(
                    executor=FaultInjectingExecutor(inner, **config.fault)
                ),
            )
        else:
            profile.set("executor.kind", config.executor)
            if config.num_workers is not None:
                profile.set("executor.num_workers", config.num_workers)
            session = ScrubJaySession(profile)
        service = QueryService(session, **config.service_kwargs)
        server = QueryServer(service).start()
        conn.send(("ready", server.address))
        while True:
            msg = conn.recv()
            if msg == "stop":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as exc:  # startup failure: tell the parent why
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            if server is not None:
                server.close()
            if service is not None:
                service.close(drain=False, timeout=1.0)
            if session is not None:
                session.close()
        except Exception:
            pass


class ShardHandle:
    """One shard process seen from the router: the forked process, the
    control pipe, and a persistent wire connection (lazily opened,
    dropped on transport failure so the next use reconnects)."""

    def __init__(self, index: int, replica: int, config: ShardConfig) -> None:
        self.index = index
        self.replica = replica
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        # Not a daemon: a shard running a process executor must be
        # allowed children of its own. Orphan safety comes from the
        # pipe instead — _shard_main parks on conn.recv() and tears
        # everything down on EOFError the moment the router process
        # (and with it this parent pipe end) goes away.
        self.process = ctx.Process(
            target=_shard_main,
            args=(child, config),
            name=f"sj-shard-{index}r{replica}",
            daemon=False,
        )
        self.process.start()
        child.close()
        self.address: Optional[Tuple[str, int]] = None
        self._client: Optional[QueryClient] = None
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"shard{self.index}" + (
            f"r{self.replica}" if self.replica else ""
        )

    def wait_ready(self, timeout: float = 30.0) -> None:
        if not self._conn.poll(timeout):
            raise ShardError(
                f"{self.name} did not report ready within {timeout}s",
                shard=self.index,
            )
        kind, payload = self._conn.recv()
        if kind != "ready":
            raise ShardError(
                f"{self.name} failed to start: {payload}",
                shard=self.index,
            )
        self.address = payload

    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """One wire round-trip. Transport failures (dead process,
        refused/reset/closed connection) surface as :class:`ShardError`
        after invalidating the cached connection."""
        if not self.process.is_alive():
            self._drop_client()
            raise ShardError(
                f"{self.name} process is dead", shard=self.index
            )
        with self._lock:
            try:
                if self._client is None:
                    host, port = self.address  # type: ignore[misc]
                    self._client = QueryClient(host, port)
                return self._client.request(req)
            except OSError as exc:
                self._drop_client_locked()
                raise ShardError(
                    f"{self.name} transport failure: {exc}",
                    shard=self.index,
                ) from exc
            except WireError as exc:
                if exc.error == "ConnectionClosed":
                    self._drop_client_locked()
                    raise ShardError(
                        f"{self.name} closed the connection",
                        shard=self.index,
                    ) from exc
                raise

    def _drop_client_locked(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None

    def _drop_client(self) -> None:
        with self._lock:
            self._drop_client_locked()

    def kill(self) -> None:
        """Hard-kill the shard process (test hook for failover)."""
        self._drop_client()
        if self.process.is_alive():
            self.process.kill()
            self.process.join(5.0)

    def stop(self, timeout: float = 5.0) -> None:
        self._drop_client()
        try:
            self._conn.send("stop")
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        try:
            self._conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------


class ShardPlacement:
    """Hash placement plus the routing table it implies.

    For each sharded dataset the placement remembers, per shard, the
    set of distinct key tuples that landed there — the collection the
    predicate oracle
    (:meth:`~repro.sources.predicate.ColumnPredicate.any_partition_may_match`)
    is asked about at routing time.
    """

    def __init__(
        self,
        num_shards: int,
        shard_on: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        self.num_shards = num_shards
        self.shard_on: Dict[str, Tuple[str, ...]] = {
            name: tuple(cols) for name, cols in (shard_on or {}).items()
        }
        #: dataset -> per-shard sets of key tuples
        self.keys: Dict[str, List[Set[Tuple[Any, ...]]]] = {}

    def is_sharded(self, name: str) -> bool:
        return name in self.shard_on

    def split(
        self, name: str, rows: Sequence[Dict[str, Any]]
    ) -> List[List[Dict[str, Any]]]:
        """Partition ``rows`` into per-shard lists (strict portable
        hashing) and record the routing table for ``name``."""
        cols = self.shard_on[name]
        parts: List[List[Dict[str, Any]]] = [
            [] for _ in range(self.num_shards)
        ]
        keys: List[Set[Tuple[Any, ...]]] = [
            set() for _ in range(self.num_shards)
        ]
        for row in rows:
            key = tuple(row.get(c) for c in cols)
            j = portable_hash(key, strict=True) % self.num_shards
            parts[j].append(row)
            keys[j].add(key)
        self.keys[name] = keys
        return parts

    def append(
        self, name: str, rows: Sequence[Dict[str, Any]]
    ) -> List[List[Dict[str, Any]]]:
        """Split *appended* rows per shard and extend ``name``'s
        routing table in place — sealed placements never rewrite, new
        key tuples just join their shard's key set (so the predicate
        oracle keeps pruning correctly as a feed grows)."""
        cols = self.shard_on[name]
        parts: List[List[Dict[str, Any]]] = [
            [] for _ in range(self.num_shards)
        ]
        keys = self.keys.setdefault(
            name, [set() for _ in range(self.num_shards)]
        )
        for row in rows:
            key = tuple(row.get(c) for c in cols)
            j = portable_hash(key, strict=True) % self.num_shards
            parts[j].append(row)
            keys[j].add(key)
        return parts

    def forget(self, name: str) -> None:
        self.keys.pop(name, None)

    def may_match(self, name: str, predicate) -> Set[int]:
        """Shards that could hold rows of ``name`` matching
        ``predicate`` (all of them for a None/empty predicate)."""
        if predicate is None or not predicate:
            return set(range(self.num_shards))
        cols = self.shard_on[name]
        keys = self.keys.get(name)
        if keys is None:  # not yet split: no pruning information
            return set(range(self.num_shards))
        return {
            j
            for j in range(self.num_shards)
            if predicate.any_partition_may_match(cols, keys[j])
        }


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------


def _plan_leaves(plan) -> List[Any]:
    """The Load/Scan leaves of a solved plan, in tree order."""
    out: List[Any] = []
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, (LoadNode, ScanNode)):
            out.append(node)
        for child in node.children():
            stack.append(child)
    return out


class ShardRouter(QueryService):
    """A :class:`QueryService` whose execution hooks scatter-gather
    over a fleet of shard processes.

    Everything north of execution is inherited unchanged: admission
    control, per-tenant round-robin fairness, deadlines, the plan
    cache (the §5.2 search runs once, router-side) and the result
    cache (keyed on the router session's fingerprints). Only
    ``_execute_plan`` / ``_aggregate_plan`` differ: the solved plan's
    scan predicates pick the shards that may hold matching rows, each
    target answers the original query over its slice, and the router
    merges — row concatenation for datasets, partial-aggregate merge
    (:func:`~repro.analysis.aggregate.merge_group_partials`) for
    grouped aggregates, so rows never cross the wire for aggregate
    tickets.

    Parameters (beyond :class:`QueryService`'s)
    -------------------------------------------
    shards:
        Number of primary shard processes.
    shard_on:
        ``{dataset_name: [key columns]}`` — datasets to hash-partition
        across the fleet. Unlisted datasets replicate whole to every
        shard.
    replication:
        Processes per shard index; replicas beyond the first are exact
        mirrors used for transport-level failover.
    shard_executor / shard_num_workers / shard_fault:
        Executor spec each shard session is built with (``shard_fault``
        wraps it in a FaultInjectingExecutor — see
        :class:`ShardConfig`).
    shard_service:
        Extra kwargs for each shard-side :class:`QueryService`.
    """

    def __init__(
        self,
        session,
        shards: int,
        shard_on: Optional[Dict[str, Sequence[str]]] = None,
        replication: int = 1,
        shard_executor: str = "serial",
        shard_num_workers: Optional[int] = None,
        shard_fault: Optional[Dict[str, Any]] = None,
        shard_service: Optional[Dict[str, Any]] = None,
        start_timeout: float = 60.0,
        **kwargs: Any,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.num_shards = shards
        self.replication = replication
        self.placement = ShardPlacement(shards, shard_on)
        config = ShardConfig(
            executor=shard_executor,
            num_workers=shard_num_workers,
            fault=shard_fault,
            service_kwargs=dict(shard_service or {}),
            profile=_shard_profile_state(session),
        )
        self._profile_push_listener = None
        # Fork the fleet *before* the base class starts router worker
        # threads — forking a process with fewer live threads is the
        # safe order, and no query can arrive before __init__ returns.
        self._fleet: List[List[ShardHandle]] = [
            [ShardHandle(j, r, config) for r in range(replication)]
            for j in range(shards)
        ]
        for replicas in self._fleet:
            for handle in replicas:
                handle.wait_ready(start_timeout)
        self._fleet_lock = threading.RLock()
        self._fleet_stamp: Optional[Tuple[int, str]] = None
        self._rr_cursor = 0  # round-robin cursor for unprunable dispatch
        #: (feed name, shard index) -> the shard's feed watermark after
        #: the router's last fan-out; the updates-gather verifies shard
        #: answers against this bookkeeping
        self._feed_marks: Dict[Tuple[str, int], int] = {}
        #: router sub_id -> per-shard subscription bookkeeping
        self._router_subs: Dict[str, Dict[str, Any]] = {}
        self._routing = {
            "scattered": 0,       # queries fanned out
            "shard_requests": 0,  # per-shard query/aggregate requests
            "pruned": 0,          # shard dispatches skipped by routing
            "failovers": 0,       # replica rescues after primary loss
            "stale_retries": 0,   # scatters that straddled churn
        }
        try:
            super().__init__(session, **kwargs)
        except BaseException:
            self._stop_fleet()
            raise
        try:
            self._seed_fleet()
        except BaseException:
            self.close()
            raise
        # Closed loop across process boundaries: when the router-side
        # tuner (or the user) moves a knob, re-push the tuned state so
        # the fleet keeps planning with the router's thresholds. Best
        # effort — a dying shard must not crash the tuner's apply path;
        # the next mutation's sync round re-asserts convergence hard.
        profile = getattr(session, "profile", None)
        if profile is not None:
            def _on_knob_change(name: str, old: Any, new: Any) -> None:
                try:
                    self.push_profile()
                except Exception:
                    pass

            self._profile_push_listener = profile.on_change(
                _on_knob_change
            )

    # ------------------------------------------------------------------
    # replication: seeding and mutations
    # ------------------------------------------------------------------

    def _each_handle(self):
        for replicas in self._fleet:
            for handle in replicas:
                yield handle

    def _live_handles(self, replicas: List[ShardHandle]) -> List[ShardHandle]:
        """The still-running processes of one shard index. A process
        that died cannot rejoin (it missed replicated mutations), so
        replication writes skip it — but a shard index with *no*
        live process left is a hard error: a mutation that silently
        skipped a whole shard would corrupt every later answer."""
        live = [h for h in replicas if h.process.is_alive()]
        if not live:
            raise ShardError(
                f"shard {replicas[0].index} has no live process left "
                f"(replication={len(replicas)})",
                shard=replicas[0].index,
            )
        return live

    def _seed_fleet(self) -> None:
        """Replicate the router session's current catalog to every
        shard process and record the settled fleet stamp."""
        with self._fleet_lock:
            for name, dataset in self.session.snapshot().items():
                self._replicate_dataset(name, dataset)
            self._refresh_fleet_stamp()

    def _replicate_dataset(self, name: str, dataset) -> None:
        rows = dataset.collect()
        schema = dataset.schema
        if self.placement.is_sharded(name):
            parts = self.placement.split(name, rows)
            for j, replicas in enumerate(self._fleet):
                payload = self._register_request(name, schema, parts[j])
                for handle in self._live_handles(replicas):
                    resp = self._replicate(handle, payload)
                    if "watermark" in resp:
                        self._feed_marks[(name, j)] = resp["watermark"]
        else:
            payload = self._register_request(name, schema, rows)
            for j, replicas in enumerate(self._fleet):
                for handle in self._live_handles(replicas):
                    resp = self._replicate(handle, payload)
                    if "watermark" in resp:
                        self._feed_marks[(name, j)] = resp["watermark"]

    def _register_request(
        self, name: str, schema: Schema, rows: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        req = {
            "op": "register",
            "name": name,
            "schema": schema.to_json_dict(),
            "rows": encode_rows(rows, schema, self.session.dictionary),
        }
        if name in self.session.feeds:
            # Live dataset: the shard backs it with a push feed so the
            # router's advance fan-out can grow it in place.
            req["feed"] = True
        return req

    def _replicate(
        self, handle: ShardHandle, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        resp = handle.request(request)
        if not resp.get("ok"):
            raise ShardStateError(
                f"replication of {request.get('op')!r} to {handle.name} "
                f"failed: {resp.get('error')}: {resp.get('message')}"
            )
        return resp

    def _refresh_fleet_stamp(self) -> None:
        """Sync every process and require one agreed-on stamp whose
        state fingerprint matches the router session's.

        The sync request piggybacks the router profile's tuned knob
        values, so the same round that settles the catalog converges
        the fleet on one profile: each shard adopts the tuned values
        (:meth:`~repro.config.TuningProfile.apply_tuned`) and reports
        its resulting tuned state back, which is checked knob-by-knob
        with :func:`repro.config.diff` — a shard that silently kept a
        stale threshold would plan joins differently from the rest of
        the fleet, so disagreement is a hard :class:`ShardStateError`,
        not a warning."""
        profile = getattr(self.session, "profile", None)
        sync_req: Dict[str, Any] = {"op": "sync"}
        tuned: Dict[str, Any] = {}
        if profile is not None:
            state = profile.tuned_state()
            tuned = state["tuned"]
            sync_req["profile"] = state
        stamps = set()
        profile_versions: Set[int] = set()
        for replicas in self._fleet:
            for handle in self._live_handles(replicas):
                resp = self._replicate(handle, sync_req)
                stamps.add((resp["catalog_version"], resp["state"]))
                if profile is not None and "profile_version" in resp:
                    mismatch = profile_diff(
                        tuned, resp.get("profile_tuned") or {}
                    )
                    if mismatch:
                        raise ShardStateError(
                            f"{handle.name} did not adopt the router's "
                            f"tuned profile: {mismatch}"
                        )
                    profile_versions.add(int(resp["profile_version"]))
        if len(stamps) != 1:
            raise ShardStateError(
                f"fleet did not converge after replication: {stamps}"
            )
        if len(profile_versions) > 1:
            raise ShardStateError(
                "fleet profile versions diverged after sync: "
                f"{sorted(profile_versions)}"
            )
        stamp = stamps.pop()
        local = self.session.state_fingerprint()
        if stamp[1] != local:
            raise ShardStateError(
                "shard state fingerprint diverged from the router's "
                f"({stamp[1][:12]}… != {local[:12]}…); state that does "
                "not replicate (session-local derivations, direct "
                "dictionary edits) cannot back a sharded fleet"
            )
        self._fleet_stamp = stamp

    def push_profile(self) -> None:
        """Propagate the router profile's tuned knob values to every
        live shard and re-assert fleet agreement (one profile version,
        zero knob diff). Called automatically whenever a router-side
        knob changes; public so tests and operators can force a
        convergence round."""
        with self._fleet_lock:
            self._refresh_fleet_stamp()

    # -- mutation surface (apply locally, replicate, re-stamp) ---------

    def register_rows(
        self,
        rows: List[Dict[str, Any]],
        schema: Schema,
        name: str,
        num_partitions: Optional[int] = None,
        shard_on: Optional[Sequence[str]] = None,
    ):
        """Register a dataset on the router session *and* across the
        fleet. ``shard_on`` hash-partitions it; omitted, it replicates
        whole."""
        with self._fleet_lock:
            ds = self.session.register_rows(
                rows, schema, name, num_partitions
            )
            if shard_on is not None:
                self.placement.shard_on[name] = tuple(shard_on)
            self._replicate_dataset(name, ds)
            self._refresh_fleet_stamp()
            return ds

    def drop(self, name: str):
        """Drop a dataset on the router session and across the fleet."""
        with self._fleet_lock:
            ds = self.session.drop(name)
            self.placement.forget(name)
            payload = {"op": "drop", "name": name}
            for replicas in self._fleet:
                for handle in self._live_handles(replicas):
                    self._replicate(handle, payload)
            self._refresh_fleet_stamp()
            return ds

    def define_dimension(
        self,
        name: str,
        continuous: bool,
        ordered: bool,
        description: str = "",
    ):
        with self._fleet_lock:
            out = self.session.define_dimension(
                name, continuous, ordered, description
            )
            payload = {
                "op": "define_dimension",
                "name": name,
                "continuous": continuous,
                "ordered": ordered,
                "description": description,
            }
            for replicas in self._fleet:
                for handle in self._live_handles(replicas):
                    self._replicate(handle, payload)
            self._refresh_fleet_stamp()
            return out

    def define_unit(
        self,
        name: str,
        kind: str,
        dimension: Optional[str] = None,
        scale: float = 1.0,
        offset: float = 0.0,
    ):
        with self._fleet_lock:
            out = self.session.define_unit(
                name, kind, dimension, scale, offset
            )
            payload = {
                "op": "define_unit",
                "name": name,
                "kind": kind,
                "dimension": dimension,
                "scale": scale,
                "offset": offset,
            }
            for replicas in self._fleet:
                for handle in self._live_handles(replicas):
                    self._replicate(handle, payload)
            self._refresh_fleet_stamp()
            return out

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _route(self, plan) -> List[int]:
        """Target shard indices for one solved plan."""
        leaves = _plan_leaves(plan)
        sharded: Dict[str, Any] = {}
        for node in leaves:
            name = node.dataset_name
            if not self.placement.is_sharded(name):
                continue
            pred = node.predicate if isinstance(node, ScanNode) else None
            if name in sharded:
                # Same dataset scanned twice (self-join): both scans
                # must be satisfiable, so the predicates AND at the
                # routing level — intersection below handles it.
                sharded[name + f"#{id(node)}"] = (name, pred)
            else:
                sharded[name] = (name, pred)
        if not sharded:
            # Replicated-only plan: any one shard answers it whole.
            with self._fleet_lock:
                self._rr_cursor = (self._rr_cursor + 1) % self.num_shards
                return [self._rr_cursor]
        shard_cols = {
            self.placement.shard_on[name]
            for name, _ in sharded.values()
        }
        if len(shard_cols) > 1:
            raise ShardRoutingError(
                "plan combines datasets sharded on different keys "
                f"({sorted(shard_cols)}); co-shard them or replicate "
                "one side"
            )
        targets: Optional[Set[int]] = None
        for name, pred in sharded.values():
            s = self.placement.may_match(name, pred)
            targets = s if targets is None else (targets & s)
        assert targets is not None
        if not targets:
            # Provably-empty answer; one shard still computes the
            # correctly-shaped empty result.
            with self._fleet_lock:
                self._rr_cursor = (self._rr_cursor + 1) % self.num_shards
                return [self._rr_cursor]
        return sorted(targets)

    # ------------------------------------------------------------------
    # scatter-gather
    # ------------------------------------------------------------------

    def _shard_request(
        self, j: int, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Send to shard ``j``, failing over replica by replica on
        transport loss."""
        last: Optional[ShardError] = None
        for attempt, handle in enumerate(self._fleet[j]):
            try:
                resp = handle.request(request)
            except ShardError as exc:
                last = exc
                continue
            if attempt > 0:
                with self._fleet_lock:
                    self._routing["failovers"] += 1
                if self.metrics.registry is not None:
                    self.metrics.registry.inc("serve.shard.failovers")
            return resp
        raise ShardError(
            f"shard {j} unreachable on all {len(self._fleet[j])} "
            f"replicas: {last}",
            shard=j,
        )

    def _scatter(
        self,
        plan,
        ticket: QueryTicket,
        request: Dict[str, Any],
    ) -> List[Dict[str, Any]]:
        """Fan ``request`` over the plan's target shards, enforcing
        per-shard deadline budgets and fleet-stamp consistency."""
        with self._fleet_lock:
            expected = self._fleet_stamp
        targets = self._route(plan)
        request = dict(request, tenant=ticket.tenant)
        with self._fleet_lock:
            self._routing["scattered"] += 1
            self._routing["shard_requests"] += len(targets)
            self._routing["pruned"] += self.num_shards - len(targets)
        if self.metrics.registry is not None:
            self.metrics.registry.inc("serve.shard.requests", len(targets))
            self.metrics.registry.inc(
                "serve.shard.pruned", self.num_shards - len(targets)
            )
        responses = []
        for j in targets:
            if ticket.deadline is not None:
                budget = ticket.deadline - self._clock()
                if budget <= 0:
                    from repro.errors import QueryTimeoutError

                    raise QueryTimeoutError(
                        "deadline expired mid-scatter "
                        f"(shard {j} of {targets})"
                    )
                request["timeout"] = budget
            resp = self._shard_request(j, request)
            if not resp.get("ok"):
                raise WireError(
                    str(resp.get("error", "UnknownError")),
                    f"shard {j}: " + str(resp.get("message", "")),
                )
            stamp = (resp.get("catalog_version"), resp.get("state"))
            if expected is not None and stamp != expected:
                with self._fleet_lock:
                    self._routing["stale_retries"] += 1
                raise ShardStaleReadError(
                    f"shard {j} answered at stamp {stamp}, fleet "
                    f"expected {expected} (catalog churn mid-scatter)",
                    shard=j,
                )
            responses.append(resp)
        return responses

    def _wire_query(self, ticket: QueryTicket) -> Dict[str, Any]:
        q = ticket.query
        values: List[Any] = []
        for t in q.values:
            if getattr(t, "units", None):
                values.append([t.dimension, t.units])
            else:
                values.append(t.dimension)
        return {
            "domains": list(q.domains),
            "values": values,
            "filters": [f.to_json_dict() for f in q.filters],
        }

    # -- execution hooks -----------------------------------------------

    def _execute_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> ScrubJayDataset:
        request = dict(self._wire_query(ticket), op="query")
        responses = self._scatter(plan, ticket, request)
        schema: Optional[Schema] = None
        schema_json: Optional[dict] = None
        name = "result"
        rows: List[Dict[str, Any]] = []
        for resp in responses:
            if schema is None:
                schema_json = resp["schema"]
                schema = Schema.from_json_dict(schema_json)
                name = resp.get("name", name)
            elif resp["schema"] != schema_json:
                raise ShardStateError(
                    "shards answered one query with different result "
                    "schemas — fleet state has diverged"
                )
            rows.extend(
                decode_rows(resp["rows"], schema, self.session.dictionary)
            )
        assert schema is not None
        return ScrubJayDataset.from_rows(
            self.session.ctx, rows, schema, name
        )

    def _aggregate_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> Dict[Tuple, Any]:
        spec = ticket.aggregate
        assert spec is not None
        request = dict(
            self._wire_query(ticket),
            op="aggregate",
            # shards always answer with mergeable partials; the
            # router merges across shards and finalizes once
            **spec.as_partial().to_wire(),
        )
        responses = self._scatter(plan, ticket, request)
        merged: Dict[Tuple, Any] = {}
        schema: Optional[Schema] = None
        for resp in responses:
            schema = Schema.from_json_dict(resp["schema"])
            partials = decode_groups(
                resp["groups"],
                list(spec.group_by),
                schema,
                self.session.dictionary,
                partial_how=spec.how,
            )
            merge_group_partials(merged, partials, spec.how)
        ticket.result_schema = schema
        if spec.partial:
            return merged
        return finalize_group_partials(merged, spec.how)

    # ------------------------------------------------------------------
    # streaming: feed fan-out and scatter-gather subscriptions
    # ------------------------------------------------------------------

    def _stream_request(
        self, handle: ShardHandle, req: Dict[str, Any]
    ) -> Dict[str, Any]:
        resp = handle.request(req)
        if not resp.get("ok"):
            raise WireError(
                str(resp.get("error", "UnknownError")),
                f"{handle.name}: " + str(resp.get("message", "")),
            )
        return resp

    def subscribe(
        self,
        query,
        values: Sequence[Any] = (),
        tenant: str = "default",
        filters: Sequence = (),
        aggregate: Optional[AggregateSpec] = None,
    ) -> Subscription:
        """Standing query over the fleet: subscribe on *every* shard
        (future appends may hash new key tuples anywhere, so routing
        cannot prune standing queries) and keep the merged answer
        router-side — row concatenation for datasets, partial-
        aggregate merge for grouped aggregates. Shard refreshes run
        shard-local (delta where their plans allow); the router only
        re-gathers and re-merges. A metric ``query`` ships its full
        JSON to the shards, so each buckets its own plan and derives
        the same spec. Held under the fleet lock, so no advance can
        land between the shard answers and the router's
        registration."""
        with self._fleet_lock:
            return super().subscribe(
                query, values, tenant, filters, aggregate
            )

    def _initial_answer(
        self,
        sub_id: str,
        query: Query,
        tenant: str,
        dplan: DeltaPlan,
        feed_names: Tuple[str, ...],
        aggregate: Optional[AggregateSpec],
        partial: bool,
    ) -> Tuple[Dict[str, int], Any, Optional[AggregateSpec], Any, Any]:
        """Subscribe on each primary shard and merge their answers;
        the per-shard bookkeeping is kept for the updates-gather."""
        session = self.session
        wire_values: List[Any] = []
        for t in query.values:
            if getattr(t, "units", None):
                wire_values.append([t.dimension, t.units])
            else:
                wire_values.append(t.dimension)
        req: Dict[str, Any] = {
            "op": "subscribe",
            "domains": list(query.domains),
            "values": wire_values,
            "tenant": tenant,
            "filters": [f.to_json_dict() for f in query.filters],
        }
        if query.is_metric:
            # each shard rebuilds the bucketed plan and the spec from
            # the query itself; the router keeps the finalizing copy
            aggregate = AggregateSpec.for_metric_query(
                dplan.plan.derive_schema(
                    session.schemas(), session.dictionary
                ),
                query,
            )
            req.update(query=query.to_json_dict(), partial=True)
        elif aggregate is not None:
            # the router merges, then finalizes
            req.update(aggregate.as_partial().to_wire())
        marks = {n: session.feeds[n].watermark for n in feed_names}
        book: Dict[str, Any] = {
            "shard_subs": {}, "versions": {},
            "rows": {}, "partials": {},
        }
        schema: Optional[Schema] = None
        for j in range(self.num_shards):
            # Primary only: a subscription is stateful server-side,
            # so its updates must keep hitting the same process.
            resp = self._stream_request(self._fleet[j][0], req)
            book["shard_subs"][j] = resp["sub_id"]
            book["versions"][j] = resp["version"]
            if schema is None and resp.get("schema") is not None:
                schema = Schema.from_json_dict(resp["schema"])
            if aggregate is not None:
                book["partials"][j] = decode_groups(
                    resp.get("groups") or [],
                    list(aggregate.group_by),
                    schema, session.dictionary,
                    partial_how=aggregate.how,
                )
            else:
                book["rows"][j] = decode_rows(
                    resp.get("rows") or [], schema,
                    session.dictionary,
                )
        self._router_subs[sub_id] = book
        rows, partials = self._merged(book, aggregate)
        return marks, schema, aggregate, rows, partials

    @staticmethod
    def _merged(
        book: Dict[str, Any], aggregate: Optional[AggregateSpec]
    ) -> Tuple[Any, Any]:
        """The router-side answer from per-shard answers: merged
        partials for an aggregate, concatenated rows otherwise."""
        if aggregate is None:
            return [
                r for j in sorted(book["rows"]) for r in book["rows"][j]
            ], None
        merged: Dict[Tuple, Any] = {}
        for part in book["partials"].values():
            merge_group_partials(merged, part, aggregate.how)
        return None, merged

    def unsubscribe(self, sub_id: str) -> bool:
        with self._fleet_lock:
            book = self._router_subs.pop(sub_id, None)
            if book is not None:
                for j, shard_sub in book["shard_subs"].items():
                    try:
                        self._stream_request(
                            self._fleet[j][0],
                            {"op": "unsubscribe", "sub_id": shard_sub},
                        )
                    except (ShardError, WireError):
                        pass  # best-effort: the shard GCs on close
        return super().unsubscribe(sub_id)

    def advance(
        self,
        name: str,
        rows: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Advance feed ``name`` fleet-wide: grow the router session's
        feed, route the appended rows to their owning shards (hash
        placement for sharded datasets — extending the routing table
        in place — whole-row replication otherwise), then refresh
        dependent standing subscriptions by re-gathering shard
        answers. Serialized under the fleet lock, so concurrent
        advances and refreshes can never interleave into a
        mixed-watermark answer."""
        with self._fleet_lock:
            return super().advance(name, rows)

    def _feed_advanced(self, name: str, adv) -> None:
        self._fan_feed_rows(
            name, adv.rows, self.session.dataset(name).schema
        )

    def _fan_feed_rows(
        self, name: str, rows: List[Dict[str, Any]], schema: Schema
    ) -> None:
        """Route appended feed rows to the fleet (caller holds the
        fleet lock) and record each shard's post-append watermark."""
        parts = (
            self.placement.append(name, rows)
            if self.placement.is_sharded(name)
            else None
        )
        for j, replicas in enumerate(self._fleet):
            shard_rows = parts[j] if parts is not None else rows
            req = {
                "op": "advance",
                "name": name,
                "rows": encode_rows(
                    shard_rows, schema, self.session.dictionary
                ),
            }
            marks: Set[int] = set()
            for handle in self._live_handles(replicas):
                resp = self._replicate(handle, req)
                marks.add(int(resp["watermark"]))
            if len(marks) != 1:
                raise ShardStateError(
                    f"replicas of shard {j} disagree on the feed "
                    f"watermark of {name!r}: {sorted(marks)}"
                )
            self._feed_marks[(name, j)] = marks.pop()

    def _refresh_subscription(self, sub: Subscription) -> bool:
        """Scatter-gather refresh: pull each shard's standing answer
        forward (``updates`` since the version the router last saw)
        and re-merge. Every shard answer's watermarks must match the
        router's fan-out bookkeeping — a shard that advanced outside
        the router (or hasn't settled) is retried briefly, then
        surfaces :class:`StaleRefreshError`, mirroring the
        ShardStaleReadError contract of the query path."""
        book = self._router_subs.get(sub.sub_id)
        if book is None:  # not a fleet subscription (defensive)
            return super()._refresh_subscription(sub)
        session = self.session
        with sub._refresh_lock:
            targets = {
                n: session.feeds[n].watermark
                for n in sub.feed_names if n in session.feeds
            }
            if targets == sub.watermarks:
                return False
            modes: List[str] = []
            for j, shard_sub in book["shard_subs"].items():
                handle = self._fleet[j][0]
                resp = None
                for attempt in range(4):
                    resp = self._stream_request(handle, {
                        "op": "updates",
                        "sub_id": shard_sub,
                        "since_version": book["versions"][j],
                    })
                    settled = all(
                        resp.get("watermarks", {}).get(n)
                        == self._feed_marks.get((n, j))
                        for n in sub.feed_names
                        if (n, j) in self._feed_marks
                    )
                    if settled:
                        break
                    self._routing["stale_retries"] += 1
                    time.sleep(0.01 * (attempt + 1))
                else:
                    raise StaleRefreshError(
                        f"shard {j} never settled at the router's "
                        f"watermarks for subscription {sub.sub_id!r}"
                    )
                book["versions"][j] = resp["version"]
                if resp.get("changed"):
                    modes.append(str(resp.get("refresh_mode")))
                    if sub.aggregate is not None:
                        book["partials"][j] = decode_groups(
                            resp.get("groups") or [],
                            list(sub.aggregate.group_by),
                            sub.schema, session.dictionary,
                            partial_how=sub.aggregate.how,
                        )
                    else:
                        book["rows"][j] = decode_rows(
                            resp.get("rows") or [], sub.schema,
                            session.dictionary,
                        )
            mode = (
                "delta"
                if modes and all(m == "delta" for m in modes)
                else "replay"
            )
            rows, partials = self._merged(book, sub.aggregate)
            sub._commit_replace(
                targets, rows=rows, partials=partials, mode=mode
            )
            self._count_refresh(mode)
        return True

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def snapshot(self):
        """The router's own snapshot plus a ``shards`` block: one
        sub-snapshot per shard process, fleet-wide totals, and the
        routing counters (dispatched/pruned/failovers)."""
        snap = super().snapshot()
        per_shard: Dict[str, Any] = {}
        fleet = {"completed": 0, "failed": 0, "submitted": 0, "shed": 0}
        for handle in self._each_handle():
            try:
                resp = handle.request({"op": "metrics"})
                m = resp["metrics"] if resp.get("ok") else {
                    "alive": False, "error": resp.get("message")
                }
            except ShardError as exc:
                m = {"alive": False, "error": str(exc)}
            per_shard[handle.name] = m
            for k in fleet:
                fleet[k] += int(m.get(k, 0) or 0)
        with self._fleet_lock:
            routing = dict(self._routing)
        snap.shards = {
            "num_shards": self.num_shards,
            "replication": self.replication,
            "per_shard": per_shard,
            "fleet": fleet,
            "routing": routing,
        }
        return snap

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome-trace export of the whole fleet: the router's spans
        on pid 1 and each shard process's spans on its own pid lane."""
        from repro.obs.export import to_chrome_trace

        tracer = getattr(self.session.ctx, "tracer", None)
        roots = tracer.roots() if tracer is not None else []
        out = to_chrome_trace(roots)
        events = out["traceEvents"]
        events.append({
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "shard-router"},
        })
        for handle in self._each_handle():
            pid = 2 + handle.index * self.replication + handle.replica
            try:
                resp = handle.request({"op": "trace"})
            except ShardError:
                continue
            if not resp.get("ok"):
                continue
            for ev in resp["trace"].get("traceEvents", []):
                ev = dict(ev, pid=pid)
                events.append(ev)
            label = f"shard {handle.index}"
            if handle.replica:
                label += f" replica {handle.replica}"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": label},
            })
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _stop_fleet(self) -> None:
        for handle in self._each_handle():
            try:
                handle.stop()
            except Exception:
                pass

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        listener = getattr(self, "_profile_push_listener", None)
        if listener is not None:
            profile = getattr(self.session, "profile", None)
            if profile is not None:
                profile.remove_listener(listener)
            self._profile_push_listener = None
        super().close(drain=drain, timeout=timeout)
        self._stop_fleet()

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={self.num_shards}, "
            f"replication={self.replication}, "
            f"sharded_datasets={sorted(self.placement.shard_on)})"
        )
