"""The benchmark's four workloads, driven through the public API.

Each workload builds its inputs from the seed, sets up (timed, several
times), runs a closed loop for the measured window, checks every
answer, and runs its end-of-run checks. A traced run records spans
around the calls into each layer from this file and reports the
per-layer metrics; an untraced run reports the end-to-end ones.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import (
    FilterTerm,
    Query,
    QueryClient,
    QueryServer,
    ScrubJaySession,
    TuningProfile,
)
from repro.core.pipeline import CombineNode, DerivationPlan, TransformNode
from repro.datagen import generate_dat2
from repro.datagen.dat import (
    JOB_LOG_SCHEMA,
    NODE_LAYOUT_SCHEMA,
    RACK_HUMIDITY_SCHEMA,
    RACK_POWER_SCHEMA,
    RACK_TEMPERATURE_SCHEMA,
    DATBundle,
    ensure_semantics,
)
from repro.datagen.facility import Facility, FacilityConfig
from repro.datagen.scheduler import JobScheduler, ScheduleConfig
from repro.datagen.sensors import RackSensorSimulator
from repro.serve import InProcessClient, decode_rows, encode_rows

import oracle
from measure import Ledger, median
from spans import SpanRecorder

# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

#: DAT1 as in examples/rack_heat.py: 20 racks x 8 nodes over 2.5 h, AMG
#: on every node of rack 17. The job schedule always uses the datagen
#: default seed, so the Fig 5 answer keeps its 10 308 rows on every
#: benchmark seed; the benchmark seed draws the sensor readings.
DAT1_DURATION = 2.5 * 3600.0
DAT1_SCHEDULE_SEED = 11
AMG_RACK = 17
TEMPERATURE_PERIOD = 120.0

FIG5 = (("jobs", "racks"), ("applications", "heat"))
FIG7 = (("cpus",), ("active frequency", "instructions per time",
                    "memory reads per time", "memory writes per time",
                    "power", "temperature"))

#: Golden answers from the seed code at the datagen default seeds.
FIG5_ROWS = 10308
FIG5_DIGEST_SEED11 = (
    "b497afa85e7a70b1681287d9c648f0a7aad25a337163b8ecd8dee6b1d97b4f66")
DAT2_SEED = 13
FIG7_ROWS_SEED13 = 8514
FIG7_DIGEST_SEED13 = (
    "2c5247cb876c96082c5e44d7ac5e356c6fb32eee1c2c73e82a021826db6cc474")

#: set-ups before the measured window, and again after it; setup_s is
#: the median of all of them
SETUP_REPEATS = 3


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


#: client threads/connections of the load generator, and the server's
#: worker threads: two, never more than the cores this process may use
CLIENTS = min(2, nproc())


def check_load_limits(threads: int, connections: int,
                      server_workers: int) -> None:
    """Refuse to run with more client threads or connections, or more
    server workers, than ``nproc``."""
    limit = nproc()
    for what, n in (("client threads", threads),
                    ("client connections", connections),
                    ("server num_workers", server_workers)):
        if n > limit:
            raise RuntimeError(f"{what} = {n} exceeds nproc = {limit}")


def build_dat1(seed: int) -> Tuple[DATBundle, RackSensorSimulator]:
    """DAT1 with the default job schedule and sensor noise from
    ``seed`` (``seed`` 11 gives exactly ``generate_dat1()``'s data)."""
    facility = Facility(FacilityConfig(num_racks=20, nodes_per_rack=8))
    sched = JobScheduler(
        facility,
        ScheduleConfig(duration=DAT1_DURATION, seed=DAT1_SCHEDULE_SEED),
    )
    amg_nodes = facility.nodes_in_rack(AMG_RACK)
    sched.pin("AMG", amg_nodes, 1800.0, 5400.0)
    sched.schedule_random(exclude_nodes=amg_nodes)
    sensors = RackSensorSimulator(facility, sched, seed=seed + 100)
    datasets = {
        "job_queue_log": (sched.job_log_rows(), JOB_LOG_SCHEMA),
        "node_layout": (facility.node_layout_rows(), NODE_LAYOUT_SCHEMA),
        "rack_temperatures": (
            sensors.temperature_rows(0.0, DAT1_DURATION,
                                     TEMPERATURE_PERIOD),
            RACK_TEMPERATURE_SCHEMA,
        ),
        "rack_humidity": (
            sensors.humidity_rows(0.0, DAT1_DURATION, TEMPERATURE_PERIOD),
            RACK_HUMIDITY_SCHEMA,
        ),
        "rack_power": (
            sensors.power_rows(0.0, DAT1_DURATION, TEMPERATURE_PERIOD),
            RACK_POWER_SCHEMA,
        ),
    }
    return DATBundle(facility, sched, datasets), sensors


def ms(seconds: float) -> float:
    return seconds * 1e3


def p50_ms(values: List[float]) -> float:
    return ms(median(values)) if values else 0.0


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: operator name -> metric prefix; scans are ``sources.scan``
OPERATOR_METRICS = {
    "interpolation_join": "core.combinations.interpolation_join",
    "natural_join": "core.combinations.natural_join",
    "explode_discrete": "core.transformations.explode_discrete",
    "explode_continuous": "core.transformations.explode_continuous",
    "derive_heat": "core.transformations.derive_heat",
    "derive_rate": "core.transformations.derive_rate",
    "derive_active_frequency":
        "core.transformations.derive_active_frequency",
}
SCAN_METRIC = "sources.scan"

#: every per-layer metric, (name, unit). A traced run reports all of
#: them; a layer the workload does not use reads 0.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("datagen.generate_s", "s"),
    ("sources.register_s", "s"),
    ("metrics.rollup.materialize_ms", "ms"),
    ("core.engine.solve_ms", "ms"),
    ("core.engine.candidates_explored", "count"),
    ("core.pipeline.execute_ms", "ms"),
    ("rdd.collect_ms", "ms"),
    (f"{SCAN_METRIC}_ms", "ms"),
    (f"{SCAN_METRIC}.rows_out", "count"),
    *(
        pair
        for prefix in OPERATOR_METRICS.values()
        for pair in ((f"{prefix}_ms", "ms"), (f"{prefix}.rows_out", "count"))
    ),
    ("core.op.coverage", "ratio"),
    ("rdd.shuffle_pairs", "count"),
    ("rdd.shuffles", "count"),
    ("rdd.broadcast_joins", "count"),
    ("rdd.shuffle_joins", "count"),
    ("obs.analyze_ratio", "ratio"),
    ("obs.trace_overhead_ms", "ms"),
    ("serve.service.cold_ms", "ms"),
    ("serve.service.warm_ms", "ms"),
    ("serve.service.collect_ms", "ms"),
    ("serve.result_cache.hit_ratio", "ratio"),
    ("serve.plan_cache.hit_ratio", "ratio"),
    ("serve.service.shed", "count"),
    ("serve.wire.encode_ms", "ms"),
    ("serve.wire.json_ms", "ms"),
    ("serve.wire.decode_ms", "ms"),
    ("serve.wire.bytes_per_answer", "bytes"),
    ("serve.wire.transport_ms", "ms"),
    ("stream.delta_ratio", "ratio"),
    ("stream.replay_refreshes", "count"),
    ("serve.result_cache.evicted_per_write", "count"),
    ("metrics.rollup.read_ms", "ms"),
    ("metrics.rollup.route_ratio", "ratio"),
)


def setup_layers(rec: SpanRecorder) -> Dict[str, float]:
    out = {}
    for name, span, scale in (
        ("datagen.generate_s", "datagen.generate", 1.0),
        ("sources.register_s", "sources.register", 1.0),
        ("metrics.rollup.materialize_ms", "metrics.rollup.materialize",
         1e3),
    ):
        xs = rec.durations(span)
        out[name] = median(xs) * scale if xs else 0.0
    return out


def operator_breakdown(sj: ScrubJaySession, plan: DerivationPlan
                       ) -> Dict[str, float]:
    """Self time of each operator, measured from outside: every plan
    node's inputs are persisted and counted first, then the node's
    ``derivation.apply(...)`` plus a count is timed. Returns
    ``<op>_ms``, ``<op>.rows_out`` and the total self time as
    ``_total_ms``."""
    catalog = sj.snapshot()
    dictionary = sj.dictionary
    out: Dict[str, float] = {}

    def timed(prefix: str, make) -> Any:
        t0 = time.perf_counter()
        ds = make().persist()
        n = ds.count()
        dt = time.perf_counter() - t0
        out[f"{prefix}_ms"] = out.get(f"{prefix}_ms", 0.0) + ms(dt)
        out[f"{prefix}.rows_out"] = out.get(f"{prefix}.rows_out", 0) + n
        out["_total_ms"] = out.get("_total_ms", 0.0) + ms(dt)
        return ds

    def run(node) -> Any:
        if isinstance(node, TransformNode):
            inp = run(node.input)
            d = node.derivation
            return timed(OPERATOR_METRICS.get(d.op_name, d.op_name),
                         lambda: d.apply(inp, dictionary))
        if isinstance(node, CombineNode):
            left, right = run(node.left), run(node.right)
            d = node.derivation
            return timed(OPERATOR_METRICS.get(d.op_name, d.op_name),
                         lambda: d.apply(left, right, dictionary))
        return timed(SCAN_METRIC, lambda: DerivationPlan(node).execute(
            catalog, dictionary))

    run(plan.root)
    return out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """One workload. ``setup`` builds the system (timed by the caller);
    ``prepare`` runs untimed work before the window; ``loop`` runs the
    measured window and returns the per-layer metrics of a traced run;
    ``finish`` runs the end-of-run checks; ``teardown`` releases
    everything."""

    name = ""
    default_seed = DAT1_SCHEDULE_SEED

    def __init__(self, seed: int, rec: Optional[SpanRecorder]) -> None:
        self.seed = seed
        self.rec = rec if rec is not None else SpanRecorder()
        self.traced = rec is not None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, ledger: Ledger) -> None:
        pass

    def loop(self, seconds: float, ledger: Ledger) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self, ledger: Ledger) -> None:
        pass

    def teardown(self) -> None:
        raise NotImplementedError

    def info(self) -> Dict[str, Any]:
        return {}


class CaseStudy(Workload):
    """A paper case-study query: one caller, closed loop of
    ``sj.ask(q).collect()``, then one ``explain(analyze=True)`` after
    the window. Keeping the slow EXPLAIN ANALYZE out of the window keeps
    every window's mix of operations the same."""

    query: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())

    def make_session(self) -> Tuple[Any, ScrubJaySession]:
        raise NotImplementedError

    def check_reference(self, rows: List[Dict[str, Any]]) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.dat, self.sj = self.make_session()
        self.q = self.sj.query().across(*self.query[0]).values(
            *self.query[1]).build()

    def teardown(self) -> None:
        self.sj.close()

    # -- operations ----------------------------------------------------

    def read(self) -> List[Dict[str, Any]]:
        return self.sj.ask(self.q).collect()

    def read_traced(self) -> List[Dict[str, Any]]:
        rec, sj = self.rec, self.sj
        with rec.span("read"):
            with rec.span("core.engine.solve"):
                plan = sj.plan(self.q)
            with rec.span("core.pipeline.execute"):
                answer = sj.execute(plan)
            with rec.span("rdd.collect"):
                return answer.collect()

    def analyze(self) -> str:
        return self.sj.explain(self.q, analyze=True)

    def check_read(self, rows: List[Dict[str, Any]]) -> None:
        oracle.check_rows(rows, self.ref, self.name)

    def check_analyze(self, text: str) -> None:
        oracle.check(f"[rows={self.ref[0]};" in text,
                     f"{self.name}: EXPLAIN ANALYZE root is not "
                     f"{self.ref[0]} rows")

    # -- phases --------------------------------------------------------

    def prepare(self, ledger: Ledger) -> None:
        """One untimed read: it finishes lazy set-up and gives the
        reference answer every later read must equal."""
        rows = self.read()
        self.ref = oracle.fingerprint(rows)
        ledger.verify("reference", lambda: self.check_reference(rows))

    def loop(self, seconds: float, ledger: Ledger) -> Dict[str, float]:
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while time.perf_counter() < deadline:
            i += 1
            if self.traced and i % 2 == 0:
                ledger.timed("read_traced", self.read_traced,
                             self.check_read)
            else:
                ledger.timed("read", self.read, self.check_read)
        ledger.wall_s = time.perf_counter() - start
        ledger.timed("analyze", self.analyze, self.check_analyze)
        return self.layers(ledger) if self.traced else {}

    def layers(self, ledger: Ledger) -> Dict[str, float]:
        rec, sj = self.rec, self.sj
        out = setup_layers(rec)
        reads = ledger.samples("read")
        out["core.engine.solve_ms"] = p50_ms(rec.durations(
            "core.engine.solve"))
        out["core.engine.candidates_explored"] = \
            sj.engine.last_solve_stats.get("candidates_explored", 0)
        out["core.pipeline.execute_ms"] = p50_ms(rec.durations(
            "core.pipeline.execute"))
        collect_ms = p50_ms(rec.durations("rdd.collect"))
        out["rdd.collect_ms"] = collect_ms
        out["obs.analyze_ratio"] = (
            median(ledger.samples("analyze")) / median(reads)
            if ledger.samples("analyze") and reads else 0.0
        )
        out["obs.trace_overhead_ms"] = (
            p50_ms(ledger.samples("read_traced")) - p50_ms(reads)
            if reads and ledger.samples("read_traced") else 0.0
        )
        # shuffle and join counts of one plain read
        report = sj.ctx.report
        report.clear()
        self.read()
        shuffles = report.shuffles()
        joins = report.joins()
        out["rdd.shuffles"] = len(shuffles)
        out["rdd.shuffle_pairs"] = sum(d.shuffled_pairs for d in shuffles)
        out["rdd.broadcast_joins"] = len(report.broadcast_joins())
        out["rdd.shuffle_joins"] = sum(
            1 for d in joins if d.strategy == "shuffle")
        ops = operator_breakdown(sj, sj.plan(self.q))
        total = ops.pop("_total_ms")
        out.update(ops)
        out["core.op.coverage"] = total / collect_ms if collect_ms else 0.0
        return out


class Fig5Heat(CaseStudy):
    name = "fig5_heat"
    query = FIG5

    def make_session(self):
        with self.rec.span("datagen.generate"):
            dat, _ = build_dat1(self.seed)
        sj = ScrubJaySession()
        with self.rec.span("sources.register"):
            dat.register(sj)
        return dat, sj

    def check_reference(self, rows):
        oracle.check(len(rows) == FIG5_ROWS,
                     f"fig5: {len(rows)} rows, expected {FIG5_ROWS}")
        oracle.check(oracle.hottest_group(rows) == ("AMG", AMG_RACK),
                     f"fig5: hottest (app, rack) is "
                     f"{oracle.hottest_group(rows)}, not AMG on rack 17")
        if self.seed == DAT1_SCHEDULE_SEED:
            oracle.check(oracle.digest(rows) == FIG5_DIGEST_SEED11,
                         "fig5: digest differs from the seed-11 answer")


class Fig7Freq(CaseStudy):
    name = "fig7_freq"
    default_seed = DAT2_SEED
    query = FIG7

    def make_session(self):
        with self.rec.span("datagen.generate"):
            dat = generate_dat2(run_duration=400.0, gap=100.0,
                                papi_period=3.0, ipmi_period=4.0,
                                seed=self.seed)
        # counters arrive every ~3 s: align streams within 8 s
        sj = ScrubJaySession(TuningProfile(interpolation_window=8.0))
        with self.rec.span("sources.register"):
            dat.register(sj)
        return dat, sj

    def check_reference(self, rows):
        freqs = oracle.settled_frequencies(rows, self.dat.scheduler.jobs)
        oracle.check(
            max(freqs["prime95"]) < min(freqs["mg.C"]),
            f"fig7: prime95 settles at {freqs['prime95']} GHz, not below "
            f"mg.C's {freqs['mg.C']}",
        )
        if self.seed == DAT2_SEED:
            oracle.check(len(rows) == FIG7_ROWS_SEED13,
                         f"fig7: {len(rows)} rows, expected "
                         f"{FIG7_ROWS_SEED13}")
            oracle.check(oracle.digest(rows) == FIG7_DIGEST_SEED13,
                         "fig7: digest differs from the seed-13 answer")


def shuffled_blocks(rng: random.Random, items: List[Any]) -> Iterator[Any]:
    """Endless seeded request mix: each block of ``len(items)`` requests
    holds every item once, in a seeded order, so every stretch of the
    run has the same composition on every seed."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


#: racks the filtered Fig 5 variants ask for: each holds 537-570 of the
#: 10 308 answer rows, so filtered reads form one latency cluster
FILTER_RACKS = (1, 10, 18)


class ServeFig5(Workload):
    """DAT1 served over loopback: :data:`CLIENTS` connections in a
    closed loop over a seeded mix of Fig 5-shaped queries."""

    name = "serve_fig5"

    def setup(self) -> None:
        rec = self.rec
        with rec.span("datagen.generate"):
            self.dat, _ = build_dat1(self.seed)
        self.sj = ScrubJaySession()
        with rec.span("sources.register"):
            self.dat.register(self.sj)
        with rec.span("serve.start"):
            self.svc = self.sj.serve(num_workers=CLIENTS)
            self.server = QueryServer(self.svc).start()
            host, port = self.server.address
            self.clients = [QueryClient(host, port) for _ in range(CLIENTS)]
        self.rng = random.Random(self.seed)
        self.mix = shuffled_blocks(self.rng, [None, *FILTER_RACKS])
        self.lock = threading.Lock()
        #: (kind, latency, key, fingerprint) of every answered request
        self.answers: List[Tuple[str, float, Any, Tuple[int, int]]] = []

    def teardown(self) -> None:
        for c in self.clients:
            c.close()
        self.server.close()
        self.svc.close()
        self.sj.close()

    def info(self) -> Dict[str, Any]:
        return {"client_connections": len(self.clients),
                "server_num_workers": self.svc.config.num_workers,
                "nproc": nproc()}

    def next_cold(self) -> Tuple[bool, Optional[int]]:
        """The next distinct query not yet asked, in a seeded order."""
        with self.lock:
            if self.cold_queue:
                return True, self.cold_queue.pop()
            return False, None

    def next_warm(self) -> Optional[int]:
        """The next request of the seeded mix (a result-cache hit)."""
        with self.lock:
            return next(self.mix)

    @staticmethod
    def filters(key: Optional[int]) -> List[FilterTerm]:
        return [] if key is None else [FilterTerm("racks", value=key)]

    def query(self, client, key) -> List[Dict[str, Any]]:
        rows, _ = client.query(*FIG5, dictionary=self.sj.dictionary,
                               filters=self.filters(key))
        return rows

    def query_traced(self, client, key) -> List[Dict[str, Any]]:
        rec = self.rec
        with rec.span("read"):
            with rec.span("serve.wire.request"):
                raw, schema = client.query(*FIG5, filters=self.filters(key))
            with rec.span("serve.wire.decode"):
                return decode_rows(raw, schema, self.sj.dictionary)

    def request(self, client, key, kind: str, ledger: Ledger) -> None:
        """One request; its answer is kept as a fingerprint and checked
        after the run."""
        fn = self.query_traced if kind == "read_traced" else self.query
        t0 = time.perf_counter()
        try:
            rows = fn(client, key)
        except Exception as exc:
            ledger.fail(kind, exc)
            return
        dt = time.perf_counter() - t0
        ledger.record(kind, dt)
        entry = (kind, dt, key, oracle.fingerprint(rows))
        with self.lock:
            self.answers.append(entry)

    def client_loop(self, client, seconds: float, ledger: Ledger) -> None:
        """Closed loop of one connection: every distinct query once
        (the cold reads), then, after all cold reads are answered,
        ``seconds`` of warm reads from the seeded mix."""
        while True:
            more, key = self.next_cold()
            if not more:
                break
            self.request(client, key, "cold_read", ledger)
            with self.lock:
                self.cold_pending -= 1
                if self.cold_pending == 0:
                    self.warm_start = time.perf_counter()
                    self.cold_done.set()
        self.cold_done.wait()
        deadline = self.warm_start + seconds
        n = 0
        while time.perf_counter() < deadline:
            n += 1
            kind = "read_traced" if self.traced and n % 2 == 0 else "read"
            self.request(client, self.next_warm(), kind, ledger)

    def loop(self, seconds: float, ledger: Ledger) -> Dict[str, float]:
        keys: List[Optional[int]] = [None, *FILTER_RACKS]
        self.rng.shuffle(keys)
        self.cold_queue = keys
        self.cold_pending = len(keys)
        self.cold_done = threading.Event()
        threads = [
            threading.Thread(target=self.client_loop,
                             args=(c, seconds, ledger))
            for c in self.clients
        ]
        check_load_limits(len(threads), len(self.clients),
                          self.svc.config.num_workers)
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ledger.wall_s = time.perf_counter() - self.warm_start
        return self.layers(ledger) if self.traced else {}

    def finish(self, ledger: Ledger) -> None:
        """Every served answer must be the multiset of a direct
        ``sj.ask``; filtered variants are its rows of that rack."""
        direct = self.sj.ask(*FIG5).collect()
        want = {None: oracle.fingerprint(direct)}
        for rack in FILTER_RACKS:
            want[rack] = oracle.fingerprint(
                [r for r in direct if r["rack"] == rack])
        for kind, dt, key, got in self.answers:
            if got != want[key]:
                ledger.unrecord(kind, dt, oracle.OracleError(
                    f"serve_fig5: answer for rack filter {key} has "
                    f"{got[0]} rows, differing from a direct ask's "
                    f"{want[key][0]}"))

    def layers(self, ledger: Ledger) -> Dict[str, float]:
        rec, sj, svc = self.rec, self.sj, self.svc
        out = setup_layers(rec)
        snap = svc.snapshot()
        out["serve.result_cache.hit_ratio"] = snap.result_cache["hit_rate"]
        out["serve.plan_cache.hit_ratio"] = snap.plan_cache["hit_rate"]
        out["serve.service.shed"] = snap.shed
        reads = ledger.samples("read")
        out["obs.trace_overhead_ms"] = (
            p50_ms(ledger.samples("read_traced")) - p50_ms(reads)
            if reads and ledger.samples("read_traced") else 0.0
        )
        # wire cost of the unfiltered answer, from a warm result
        ds = svc.query(*FIG5)
        rows = ds.collect()
        enc_s, json_s, dec_s = [], [], []
        for _ in range(5):
            t0 = time.perf_counter()
            enc = encode_rows(rows, ds.schema, sj.dictionary)
            t1 = time.perf_counter()
            line = json.dumps({"ok": True, "rows": enc})
            t2 = time.perf_counter()
            decode_rows(json.loads(line)["rows"], ds.schema, sj.dictionary)
            t3 = time.perf_counter()
            enc_s.append(t1 - t0)
            json_s.append(t2 - t1)
            dec_s.append(t3 - t2)
        out["serve.wire.encode_ms"] = p50_ms(enc_s)
        out["serve.wire.json_ms"] = p50_ms(json_s)
        out["serve.wire.decode_ms"] = p50_ms(dec_s)
        out["serve.wire.bytes_per_answer"] = len(line.encode("utf-8"))
        # transport: socket client minus in-process client, same request
        local = InProcessClient(svc)
        sock_s, local_s = [], []
        for _ in range(5):
            for client, acc in ((self.clients[0], sock_s),
                                (local, local_s)):
                t0 = time.perf_counter()
                client.query(*FIG5, dictionary=sj.dictionary)
                acc.append(time.perf_counter() - t0)
        out["serve.wire.transport_ms"] = p50_ms(sock_s) - p50_ms(local_s)
        # the service in process: cold query, the collect after it, warm
        solve_s = []
        for _ in range(3):
            t0 = time.perf_counter()
            sj.plan(Query.of(*FIG5))
            solve_s.append(time.perf_counter() - t0)
        out["core.engine.solve_ms"] = p50_ms(solve_s)
        out["core.engine.candidates_explored"] = \
            sj.engine.last_solve_stats.get("candidates_explored", 0)
        svc.invalidate()
        t0 = time.perf_counter()
        ds = svc.query(*FIG5)
        t1 = time.perf_counter()
        ds.collect()
        t2 = time.perf_counter()
        svc.query(*FIG5)
        t3 = time.perf_counter()
        out["serve.service.cold_ms"] = ms(t1 - t0)
        out["serve.service.collect_ms"] = ms(t2 - t1)
        out["serve.service.warm_ms"] = ms(t3 - t2)
        return out


FEED = "rack_temperatures"
#: share of DAT1's temperature rows already in the feed at set-up
FEED_START_SHARE = 0.6
#: one write: one 2-minute sample of every sensor (20 racks x 6)
BATCH_ROWS = 120
READS_PER_WRITE = 20
READ_GRAINS = {"15m": 900.0, "30m": 1800.0, "1h": 3600.0}
MEASURE_KEY = "temperature_mean"


def mean_temperature(sj: ScrubJaySession, grain: str) -> Query:
    """Mean rack temperature per rack at ``grain``."""
    return (sj.query().measure("temperature", "mean").per("racks")
            .grain(grain).build())


class FeedRefresh(Workload):
    """DAT1 with ``rack_temperatures`` tailed as a feed: one write of a
    2-minute batch through ``QueryService.advance`` (which returns after
    the dependent subscriptions refresh), then a fixed number of
    rollup-routed metric reads, in a closed loop."""

    name = "feed_refresh"

    def setup(self) -> None:
        rec = self.rec
        with rec.span("datagen.generate"):
            self.dat, self.sensors = build_dat1(self.seed)
        temps = self.dat.rows(FEED)
        n0 = int(len(temps) * FEED_START_SHARE)
        self.sj = sj = ScrubJaySession()
        with rec.span("sources.register"):
            ensure_semantics(sj.dictionary)
            for name, (rows, schema) in self.dat.datasets.items():
                if name != FEED:
                    sj.register_rows(rows, schema, name)
            self.feed = sj.ingest().feed(
                RACK_TEMPERATURE_SCHEMA, rows=temps[:n0]).tail(FEED)
        with rec.span("metrics.rollup.materialize"):
            self.rollup = sj.rollup("temperature_15m",
                                    mean_temperature(sj, "15m"))
        with rec.span("serve.subscribe"):
            self.svc = sj.serve(num_workers=CLIENTS)
            self.metric_sub = self.svc.subscribe(mean_temperature(sj, "1h"))
            self.heat_sub = self.svc.subscribe(*FIG5)
        self.grains = shuffled_blocks(random.Random(self.seed),
                                      sorted(READ_GRAINS))
        self.queries = {g: mean_temperature(sj, g) for g in READ_GRAINS}
        self.evicted: List[int] = []
        self.routed = 0

    def prepare(self, ledger: Ledger) -> None:
        temps = self.dat.rows(FEED)
        mark = self.feed.watermark
        self.pushed = list(temps[:mark])
        self.future = iter(temps[mark:])
        self.extend_from = DAT1_DURATION
        # reference (sum, count) per (rack, 15 min bucket) of pushed rows
        self.sums: Dict[Tuple[int, float], List[float]] = {}
        self.fold(self.pushed)

    def teardown(self) -> None:
        self.svc.close()
        self.sj.close()

    def info(self) -> Dict[str, Any]:
        return {"server_num_workers": self.svc.config.num_workers,
                "client_threads": 1, "nproc": nproc()}

    def fold(self, rows) -> None:
        for r in rows:
            key = (r["rack"], r["time"].epoch // 900.0 * 900.0)
            acc = self.sums.setdefault(key, [0.0, 0])
            acc[0] += r["temp"]
            acc[1] += 1

    def expected(self, grain_s: float) -> Dict[Tuple, Dict[str, float]]:
        acc: Dict[Tuple[int, float], List[float]] = {}
        for (rack, b), (s, n) in self.sums.items():
            a = acc.setdefault((rack, b // grain_s * grain_s), [0.0, 0])
            a[0] += s
            a[1] += n
        return {k: {MEASURE_KEY: s / n} for k, (s, n) in acc.items()}

    def next_batch(self) -> List[Dict[str, Any]]:
        """The next 2-minute batch: DAT1's remaining rows, then sensor
        readings past the end of the DAT, generated an hour at a time."""
        batch = list(islice(self.future, BATCH_ROWS))
        if len(batch) < BATCH_ROWS:
            self.future = iter(self.sensors.temperature_rows(
                self.extend_from, 3600.0, TEMPERATURE_PERIOD))
            self.extend_from += 3600.0
            batch += islice(self.future, BATCH_ROWS - len(batch))
        return batch

    def write(self, ledger: Ledger, kind: str) -> None:
        batch = self.next_batch()
        mark = self.feed.watermark

        def check(res):
            self.evicted.append(res["evicted"])
            oracle.check(
                res["rows_added"] == len(batch)
                and res["watermark"] == mark + len(batch)
                and res["subscriptions_refreshed"] == 2,
                f"feed_refresh: advance returned {res}")

        ledger.timed(kind, lambda: self.svc.advance(FEED, rows=batch), check)
        self.pushed.extend(batch)
        self.fold(batch)

    def read(self, ledger: Ledger, kind: str) -> None:
        grain = next(self.grains)

        def check(ans):
            if ans.decision.route == "rollup":
                self.routed += 1
            oracle.groups_close(ans.groups,
                                self.expected(READ_GRAINS[grain]),
                                f"feed_refresh read at {grain}")

        if kind == "read_traced":
            def op():
                with self.rec.span("read"):
                    return self.svc.query(self.queries[grain])
        else:
            def op():
                return self.svc.query(self.queries[grain])
        ledger.timed(kind, op, check)

    def loop(self, seconds: float, ledger: Ledger) -> Dict[str, float]:
        check_load_limits(1, 0, self.svc.config.num_workers)
        start = time.perf_counter()
        deadline = start + seconds
        cycle = 0
        while time.perf_counter() < deadline:
            cycle += 1
            traced = self.traced and cycle % 2 == 0
            if traced:
                with self.rec.span("stream.advance"):
                    self.write(ledger, "write_traced")
                with self.rec.span("metrics.rollup.read"):
                    self.rollup.answer(self.queries["1h"])
            else:
                self.write(ledger, "write")
            for _ in range(READS_PER_WRITE):
                self.read(ledger, "read_traced" if traced else "read")
        ledger.wall_s = time.perf_counter() - start
        return self.layers(ledger) if self.traced else {}

    def finish(self, ledger: Ledger) -> None:
        """At the end of the run each subscription equals a fresh query
        at the same watermark, and a rollup-routed read equals the raw
        route."""
        truth = ScrubJaySession()
        try:
            ensure_semantics(truth.dictionary)
            for name, (rows, schema) in self.dat.datasets.items():
                if name != FEED:
                    truth.register_rows(rows, schema, name)
            mark = self.feed.watermark
            truth.register_rows(self.pushed[:mark], RACK_TEMPERATURE_SCHEMA,
                                FEED)
            hourly = mean_temperature(truth, "1h")

            def heat():
                cur = self.heat_sub.current()
                oracle.check(cur.watermarks.get(FEED) == mark,
                             f"heat subscription at {cur.watermarks}, "
                             f"feed at {mark}")
                oracle.check(
                    oracle.multiset(cur.rows) == oracle.multiset(
                        truth.ask(*FIG5).collect()),
                    "heat subscription differs from a fresh query")

            raw = truth.ask(hourly)

            def metric_sub():
                cur = self.metric_sub.current()
                oracle.groups_close(
                    cur.groups,
                    {k: v[MEASURE_KEY] for k, v in raw.groups.items()},
                    "metric subscription vs a fresh query")

            def routed():
                ans = self.svc.query(self.queries["1h"])
                oracle.check(ans.decision.route == "rollup",
                             f"hourly read not rollup-routed: "
                             f"{ans.decision}")
                oracle.check(raw.decision.route == "raw",
                             f"reference read not raw: {raw.decision}")
                oracle.groups_close(ans.groups, raw.groups,
                                    "rollup route vs raw route")

            for name, fn in (("heat_subscription", heat),
                             ("metric_subscription", metric_sub),
                             ("rollup_vs_raw", routed)):
                ledger.verify(name, fn)
        finally:
            truth.close()

    def layers(self, ledger: Ledger) -> Dict[str, float]:
        rec = self.rec
        out = setup_layers(rec)
        streams = self.svc.snapshot().streams
        delta = streams.get("refresh_delta", 0)
        replay = streams.get("refresh_replay", 0)
        out["stream.delta_ratio"] = (
            delta / (delta + replay) if delta + replay else 0.0)
        out["stream.replay_refreshes"] = replay
        out["serve.result_cache.evicted_per_write"] = (
            sum(self.evicted) / len(self.evicted) if self.evicted else 0.0)
        out["metrics.rollup.read_ms"] = p50_ms(
            rec.durations("metrics.rollup.read"))
        reads = len(ledger.samples("read")) + len(
            ledger.samples("read_traced"))
        out["metrics.rollup.route_ratio"] = (
            self.routed / reads if reads else 0.0)
        plain = ledger.samples("read")
        out["obs.trace_overhead_ms"] = (
            p50_ms(ledger.samples("read_traced")) - p50_ms(plain)
            if plain and ledger.samples("read_traced") else 0.0
        )
        return out


WORKLOADS = {w.name: w for w in (Fig5Heat, Fig7Freq, ServeFig5,
                                 FeedRefresh)}


def run_workload(name: str, seed: int, seconds: float,
                 trace_path: Optional[str]) -> Dict[str, Any]:
    """Run one workload: set up :data:`SETUP_REPEATS` times (keeping the
    last), prepare, measure ``seconds``, check, tear down, then set up
    :data:`SETUP_REPEATS` more times. Set-ups on both sides of the
    window sample the machine at two moments, which steadies their
    median. With a ``trace_path`` the run is traced and its spans are
    written there."""
    cls = WORKLOADS[name]
    rec = SpanRecorder() if trace_path else None
    ledger = Ledger()
    setup_times: List[float] = []

    def set_up() -> Workload:
        w = cls(seed, rec)
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
        return w

    for _ in range(SETUP_REPEATS - 1):
        set_up().teardown()
    w = set_up()
    try:
        w.prepare(ledger)
        layers = w.loop(seconds, ledger)
        w.finish(ledger)
        info = w.info()
    finally:
        w.teardown()
    for _ in range(SETUP_REPEATS):
        set_up().teardown()
    if rec is not None:
        rec.dump(trace_path)
    return {"ledger": ledger, "setup_times": setup_times,
            "layers": layers, "info": info}
