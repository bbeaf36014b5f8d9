"""The six workloads: set-up, the measured window, the traced pass.

Every workload has two entry points sharing one set-up shape:

* ``measure`` (``--trace 0``) runs with tracing off and yields the
  end-to-end metrics, as times at reference speed (:mod:`speed`).  The
  four serve workloads drive the real CLI (``python -m repro serve`` as
  a subprocess) from one closed-loop client.
* ``trace`` (``--trace 1``) runs a short fixed-count list in-process,
  once with the wrappers of :mod:`trace` off and once with them on, and
  yields the per-layer metrics (:mod:`layers` derives them).
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.backend import BACKEND_NAMES, COMPRESSIONS
from repro.bench import PAPER_QUERIES
from repro.corpus.collection import Collection
from repro.corpus.loader import dump_collection
from repro.corpus.xmlparser import XMLParser
from repro.retrieval.engine import TrexEngine
from repro.scoring.scorers import BM25Scorer
from repro.scoring.stats import ScoringStats
from repro.selfmanage.advisor import IndexAdvisor
from repro.selfmanage.workload import Workload, WorkloadQuery
from repro.service import QueryService, ServiceConfig, make_server
from repro.storage.cost import CostModel

from . import inputs, layers, serving, stats
from .inputs import AnswerKey, Cell, Sizes, Tick, no_tick
from .speed import SpeedMeter, at_reference_speed
from .stats import Measure
from .trace import TARGETS, Tracer

#: Share of its time a busy thread gives the speed probe (a thread that
#: waits for replies takes a few slices per reply instead).
PROBE_SHARE = 0.10
#: ``ServiceConfig`` fields per serve workload; the CLI flags derive
#: from the same table so both lanes run one configuration.
SERVICE = {
    "search_1x1": {"cache_capacity": 0},
    "search_cached": {},
    "search_2x2": {"shards": 2, "replicas": 2, "cache_capacity": 0},
    "ingest_mix": {},
}
_FLAG = {"cache_capacity": "--cache-size", "shards": "--shards",
         "replicas": "--replicas"}
#: Bytes the advisor may spend (uniform five-query k=10 workload).
ADVISOR_BUDGET = 50_000
#: ``CostModel.compare()`` calls timed to price one charge.
CALIBRATION_CALLS = 1_000_000


class HarnessError(RuntimeError):
    """The harness refuses to report: a precondition of the run failed."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    smoke: bool
    #: Scratch directory, removed by the caller.
    tmp: str
    #: ``src`` of the checkout (the server subprocess's PYTHONPATH).
    src_dir: str


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Measure] = field(default_factory=dict)
    #: Printed, but not part of ``BENCHMARK.json``.
    info: dict[str, Measure] = field(default_factory=dict)
    #: Written to ``--trace-out`` / ``--out``.
    report: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


class Phases:
    """Named set-up timings, and set-up time as a whole at reference
    speed.  With ``share=0`` (the traced pass) no probe slice runs."""

    def __init__(self, share: float = 0.0) -> None:
        self.meter = SpeedMeter(share)
        self.started = time.perf_counter()
        self._cpu_started = time.process_time()
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)

    def tick(self) -> None:
        """Between two units of set-up work: the probe's turn."""
        self.meter.catch_up()

    def finish(self, server_cpu: float = 0.0) -> Measure:
        """Set-up time so far, probe slices taken out.  Its on-CPU share
        is this process's CPU time plus *server_cpu*, the CPU seconds a
        server used while this process only waited for it."""
        self.meter.sample()
        probing = self.meter.seconds
        wall = time.perf_counter() - self.started - probing
        cpu = time.process_time() - self._cpu_started - probing + server_cpu
        return Measure(at_reference_speed(wall, cpu, self.meter.factor()),
                       len(self.meter.slices))


def own_peak_rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise HarnessError("no VmHWM line in /proc/self/status")


def latency_metrics(outcome: Outcome, latencies: list[float],
                    qps: float) -> None:
    """The query metrics every workload reports, from latencies in
    seconds at reference speed.  The typical latency is the mean of the
    middle half: the cells' costs come in a few lumps, and a median
    jumps when two lumps trade places.  The tail is printed with the
    percentile the sample supports but is not an end-to-end metric: on
    ``ingest_mix`` about one read in fourteen waits out a write, so any
    fixed high percentile sits on that cliff."""
    if not latencies:
        raise HarnessError("the window produced no correct answer")
    millis = [seconds * 1e3 for seconds in latencies]
    outcome.metrics["query_qps"] = Measure(qps, len(millis))
    outcome.metrics["query_mid_ms"] = Measure(
        stats.interquartile_mean(millis), len(millis))
    outcome.info["query_p50_ms"] = Measure(stats.median(millis), len(millis))
    pct, value = stats.tail(millis)
    outcome.info[f"query_tail_ms(p{pct:g})"] = Measure(value, len(millis))


class Lap(NamedTuple):
    """One timed call: elapsed seconds and this process's CPU seconds."""

    wall: float
    cpu: float

    def at(self, factor: float) -> float:
        return at_reference_speed(self.wall, self.cpu, factor)


def lap(call: Callable[[], Any]) -> tuple[Any, Lap]:
    cpu = time.process_time()
    started = time.perf_counter()
    result = call()
    return result, Lap(time.perf_counter() - started,
                       time.process_time() - cpu)


def settle() -> None:
    """Set-up is over: park what it allocated in the permanent
    generation, as a long-running host does after start-up, so that a
    full collection over the whole corpus does not land in whichever
    timed operation happens to trip the threshold."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
class Oracle:
    """ERA answers from a fresh in-process engine.

    Without *documents* there is one answer per cell.  With the
    documents ``ingest_mix`` will POST, answers also depend on the epoch
    a reply reports: the engine's scorer keeps the corpus statistics of
    its construction, so an insert never changes the score of a resident
    element and the answer at epoch *e* is the full ERA ranking over all
    documents restricted to the first ``base + e`` of them.  The oracle
    builds that ranking once, on a fresh engine over the final
    collection with the original statistics.
    """

    def __init__(self, collection: Collection, cells: list[Cell], *,
                 mode: str = "nexi", documents: tuple[str, ...] = (),
                 tick: Tick = no_tick) -> None:
        self.base_docs = len(collection)
        self._static: dict[Cell, list[AnswerKey]] | None = None
        self._full: dict[int, list[AnswerKey]] = {}
        self._memo: dict[tuple[Cell, int], list[AnswerKey]] = {}
        if not documents:
            self._static = inputs.era_oracle(inputs.ieee_engine(collection),
                                             cells, mode, tick)
            return
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        parser = XMLParser()
        for xml in documents:
            collection.add(parser.parse(xml, collection.next_docid))
        engine = inputs.ieee_engine(collection, scorer=scorer)
        for qid in sorted({cell.qid for cell in cells}):
            ranking = engine.evaluate(PAPER_QUERIES[qid].nexi, k=None,
                                      method="era", mode=mode)
            self._full[qid] = inputs.hit_keys(ranking.hits)
            tick()

    def expected(self, cell: Cell, epoch: Any = 0) -> list[AnswerKey]:
        if self._static is not None:
            return self._static[cell]
        key = (cell, epoch)
        if key not in self._memo:
            limit = self.base_docs + epoch
            self._memo[key] = [row for row in self._full[cell.qid]
                               if row[0] < limit][:cell.k]
        return self._memo[key]

    def matches(self, cell: Cell, payload: dict) -> bool:
        return inputs.payload_keys(payload) == self.expected(
            cell, payload["epoch"])


# ----------------------------------------------------------------------
# Serve workloads: shared pieces
# ----------------------------------------------------------------------
def corpus_order_seed(ctx: Context) -> int | None:
    """The seed that orders the corpus — except under shards.  On about
    one document order in 25 a shard's engine (a sub-collection with
    gaps in its docids) returns a wrong WAND top-k (README, "Findings");
    the benchmark must not time wrong answers, so ``search_2x2`` keeps
    the generated order until that is fixed."""
    return None if "shards" in SERVICE[ctx.workload] else ctx.seed


def serve_flags(workload: str) -> list[str]:
    flags: list[str] = []
    for key, value in SERVICE[workload].items():
        flags += [_FLAG[key], str(value)]
    return flags


def warm_up(port: int, oracle: Oracle, cells: list[Cell],
            tick: Tick = no_tick) -> None:
    """Forced ``ta`` and ``wand`` per query materialize the universal
    RPL + ERPL segments (``materialize_on_demand``); then one full cycle
    must resolve every ``auto`` cell to an index strategy.  A harness
    that skipped this would silently benchmark the ERA fallback."""
    client = serving.Client(port, timeout=120.0)
    try:
        for qid in inputs.IEEE_QUERY_IDS:
            for method in ("ta", "wand"):
                reply = client.get(serving.search_path(
                    Cell(qid, 10), method=method, cache=False))
                if reply.status != 200:
                    raise HarnessError(
                        f"warm-up {method} Q{qid}: HTTP {reply.status} "
                        f"{reply.body[:200]!r}")
                tick()
        for cell in cells:
            sample = serving.checked_search(client, cell, oracle,
                                            time.perf_counter())
            tick()
            if sample.info.get("method") in (None, "era"):
                raise HarnessError(
                    f"warm-up: auto resolved {cell.label} to "
                    f"{sample.info.get('method')!r}; refusing to benchmark "
                    f"the ERA fallback")
            if not sample.ok:
                raise HarnessError(f"warm-up: wrong answer for {cell.label}")
    finally:
        client.close()


def tally_reads(outcome: Outcome,
                log: serving.ReaderLog) -> list[serving.Sample]:
    """Count every search; return the correct ones."""
    if log.error is not None:
        raise HarnessError(f"reader failed: {log.error!r}")
    if not any(sample.ok for sample in log.samples):
        raise HarnessError("the window produced no correct answer")
    return [sample for sample in log.samples if outcome.check(sample.ok)]


def post_ingest_checks(outcome: Outcome, client: serving.Client,
                       oracle: Oracle, cells: list[Cell],
                       acked: int) -> float:
    """After the window: the document count, then ``era`` against the
    oracle and ``auto`` against ``era`` on all 15 cells, before and after
    a forced compact.  ERA reads Elements and PostingLists only, which
    compaction never touches, so it is fetched once.  Returns the
    seconds the compact took."""
    engine_stats = client.get("/stats").json()
    outcome.check(engine_stats["engine"]["documents"]
                  == oracle.base_docs + acked)
    era: dict[int, list[AnswerKey]] = {}
    top = max(inputs.K_VALUES)
    for qid in inputs.IEEE_QUERY_IDS:
        reply = client.get(serving.search_path(Cell(qid, top), method="era",
                                               cache=False))
        payload = reply.json() if reply.status == 200 else {"hits": []}
        era[qid] = inputs.payload_keys(payload)
        outcome.check(reply.status == 200
                      and era[qid] == oracle.expected(Cell(qid, top), acked))

    def auto_agrees() -> None:
        for cell in cells:
            reply = client.get(serving.search_path(cell, cache=False))
            outcome.check(reply.status == 200 and inputs.payload_keys(
                reply.json()) == era[cell.qid][:cell.k])

    auto_agrees()
    compact = client.post_json("/compact", {"force": True})
    outcome.check(compact.status == 200)
    auto_agrees()
    return compact.seconds


def steady_wait(meter: SpeedMeter, began: float, seconds: float,
                cpu: float) -> float:
    """A wait for the server at reference speed.  Of the wait, the CPU
    seconds the server used until its first byte (on this request or on
    the write it queued behind) are what the box's mood can stretch; a
    long wait is corrected by the slices taken while it lasted."""
    return at_reference_speed(seconds, cpu,
                              meter.factor_between(began, began + seconds))


def measure_serve(ctx: Context) -> Outcome:
    """``--trace 0`` for the four serve workloads."""
    outcome = Outcome()
    cells = inputs.serve_cells()
    ingesting = ctx.workload == "ingest_mix"
    due_times = serving.ingest_due_times(ctx.seconds) if ingesting else []
    documents = tuple(inputs.ingest_documents(ctx.seed, len(due_times)))
    phases = Phases(PROBE_SHARE)
    collection = inputs.ieee_collection(corpus_order_seed(ctx), ctx.sizes,
                                        phases.tick)
    corpus_dir = os.path.join(ctx.tmp, "corpus")
    dump_collection(collection, corpus_dir)
    phases.tick()
    server = serving.Server(corpus_dir, serve_flags(ctx.workload),
                            src_dir=ctx.src_dir,
                            log_path=os.path.join(ctx.tmp, "serve.log"))
    try:
        # The oracle is computed while the server process starts up; from
        # here on this process only waits, and the server's CPU time is
        # what set-up consists of.
        oracle = Oracle(collection, cells, documents=documents,
                        tick=phases.tick)
        waiting_from = server.cpu_seconds()
        serve_start = server.wait_healthy(phases.meter)
        warm_up(server.port, oracle, cells, phases.meter.after_wait)
        outcome.metrics["setup_s"] = phases.finish(
            server.cpu_seconds() - waiting_from)
        outcome.info["cli.serve_start_s"] = Measure(serve_start)

        reader, writer = serving.ReaderLog(), serving.WriterLog()
        meter = SpeedMeter()
        origin = time.perf_counter()
        targets: list[tuple] = [
            (serving.read_loop, server, inputs.client_schedule(ctx.seed, 0),
             oracle, origin, ctx.seconds, reader)]
        if ingesting:
            targets.append((serving.write_loop, server, list(documents),
                            origin, due_times, writer))
        with meter.in_background():
            serving.run_threads(targets)
        window = time.perf_counter() - origin
        raw = tally_reads(outcome, reader)
        latencies = [steady_wait(meter, origin + sample.started,
                                 sample.seconds, sample.cpu)
                     for sample in raw]
        # The window with every wait in it replaced by its steady self.
        steady = window - sum(sample.seconds for sample in raw) + sum(latencies)
        latency_metrics(outcome, latencies, len(latencies) / steady)
        outcome.info["window_s"] = Measure(window)
        outcome.info["speed_factor"] = Measure(meter.factor(),
                                               len(meter.slices))
        outcome.info["query_qps_as_measured"] = Measure(
            len(raw) / window, len(raw))
        outcome.info["query_p50_ms_as_measured"] = Measure(
            stats.median([sample.seconds * 1e3 for sample in raw]), len(raw))
        client = serving.Client(server.port, timeout=120.0)
        try:
            if ingesting:
                if writer.error is not None:
                    raise HarnessError(f"writer failed: {writer.error!r}")
                for sample in writer.samples:
                    outcome.check(sample.ok)
                acks = [steady_wait(meter, origin + s.due, s.seconds,
                                    s.cpu) * 1e3
                        for s in writer.samples if s.ok]
                outcome.info["ingest_p50_ms"] = Measure(stats.median(acks),
                                                        len(acks))
                outcome.info["loadgen.ingest_late_ms"] = Measure(
                    max((s.late for s in writer.samples), default=0.0) * 1e3,
                    len(writer.samples))
                outcome.info["index.catalog.compact_ms"] = Measure(
                    post_ingest_checks(outcome, client, oracle, cells,
                                       len(acks)) * 1e3)
            engine_stats = client.get("/stats").json()
        finally:
            client.close()
        outcome.metrics["rss_mb"] = Measure(server.peak_rss_mib())
        outcome.metrics["index_bytes"] = Measure(
            float(engine_stats["engine"]["catalog_bytes"]))
        outcome.report["stats"] = {
            key: engine_stats[key] for key in ("cache", "executor", "engine",
                                               "deltas")}
        outcome.report["reader"] = [
            (sample.cell.label, sample.started, sample.seconds, sample.cpu)
            for sample in reader.samples]
        outcome.report["speed"] = {"factor": meter.factor(),
                                   "window_s": window, "steady_s": steady,
                                   "slices": meter.slices,
                                   "stamps": [stamp - origin
                                              for stamp in meter.stamps]}
    except BaseException:
        print(f"--- server log tail ---\n{server.log_tail()}", flush=True)
        raise
    finally:
        exit_code = server.stop()
    outcome.check(exit_code == 0)
    return outcome


# ----------------------------------------------------------------------
# Serve workloads: the traced pass (in-process, one client)
# ----------------------------------------------------------------------
@contextmanager
def in_process_server(service: QueryService) -> Iterator[int]:
    """``make_server`` on a thread; yields the bound port."""
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@dataclass
class ListRun:
    """One pass over a traced request list."""

    samples: list[serving.Sample] = field(default_factory=list)
    ingests: list[serving.Reply] = field(default_factory=list)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    #: Seconds per operation at reference speed, in list order (the
    #: overhead pairing).
    operations: list[float] = field(default_factory=list)


def run_serve_list(service: QueryService, port: int, oracle: Oracle,
                   schedule: list[Cell], documents: list[str],
                   outcome: Outcome) -> ListRun:
    """Two 15-cell cycles; with *documents*, 5 reads then one ingest per
    document and a forced compact instead.  The result cache is cleared
    first so the first cycle always misses."""
    run = ListRun()
    service.cache.clear()
    run.before = service.stats()
    # The server is a thread of this process, so the process's own CPU
    # clock says how much of each wait was computing.
    client = serving.Client(port, timeout=120.0,
                            cpu_clock=time.process_time)
    meter = SpeedMeter()
    waits: list[tuple[float, float]] = []
    origin = time.perf_counter()
    try:
        def timed(reply: serving.Reply | serving.Sample) -> None:
            waits.append((reply.seconds, reply.cpu))
            meter.after_wait()

        def read(cell: Cell) -> None:
            sample = serving.checked_search(client, cell, oracle, origin)
            outcome.check(sample.ok)
            run.samples.append(sample)
            timed(sample)

        if not documents:
            for cell in schedule + schedule:
                read(cell)
        else:
            step = len(schedule) // len(documents)
            for index, xml in enumerate(documents):
                for cell in schedule[index * step:(index + 1) * step]:
                    read(cell)
                reply = client.post("/ingest", xml.encode("utf-8"),
                                    "application/xml")
                outcome.check(reply.status == 200)
                run.ingests.append(reply)
                timed(reply)
            compact = client.post_json("/compact", {"force": True})
            outcome.check(compact.status == 200)
            timed(compact)
    finally:
        client.close()
    run.after = service.stats()
    factor = meter.factor()
    run.operations = [at_reference_speed(seconds, cpu, factor)
                      for seconds, cpu in waits]
    return run


def calibrate_charge_ns(ctx: Context) -> float:
    """Nanoseconds one ``CostModel.compare()`` charge takes."""
    calls = CALIBRATION_CALLS // (10 if ctx.smoke else 1)
    compare = CostModel().compare
    started = time.perf_counter()
    for _ in range(calls):
        compare()
    return (time.perf_counter() - started) / calls * 1e9


def paired_overhead_pct(off: list[float], on: list[float]) -> Measure:
    """Median over paired operations of traced ÷ untraced time, − 1,
    both at reference speed (the box changes mood between two passes as
    readily as between two runs).  Pairing operation by operation keeps
    what is left of a noisy episode in one of the two passes from
    reading as tracing overhead."""
    if len(off) != len(on):
        raise HarnessError("traced and untraced passes differ in length")
    ratios = [b / a for a, b in zip(off, on) if a > 0]
    return Measure((stats.median(ratios) - 1.0) * 100.0, len(ratios))


def finish_trace(ctx: Context, outcome: Outcome, report: layers.LayerReport,
                 tracer: Tracer, off: list[float], on: list[float]) -> None:
    """What every traced pass ends with: price the charges, compare the
    two passes, keep the spans for ``--trace-out``."""
    report.cost_share(calibrate_charge_ns(ctx))
    report.metrics["trace.overhead_pct"] = paired_overhead_pct(off, on)
    outcome.report["spans"] = tracer.dump()
    outcome.report["counts"] = dict(tracer.counts)


def trace_serve(ctx: Context) -> Outcome:
    """``--trace 1`` for the four serve workloads."""
    outcome = Outcome()
    cells = inputs.serve_cells()
    ingesting = ctx.workload == "ingest_mix"
    per_pass = 3 if ingesting else 0
    documents = inputs.ingest_documents(ctx.seed, 2 * per_pass)
    phases = Phases()
    with phases("corpus.generate"):
        collection = inputs.ieee_collection(corpus_order_seed(ctx), ctx.sizes)
    corpus_dir = os.path.join(ctx.tmp, "corpus")
    dump_collection(collection, corpus_dir)
    # The CLI is spawned only to time spawn → /healthz, with nothing else
    # running; the traced list itself runs in-process so that one client
    # sees exact counts.
    cli = serving.Server(corpus_dir, serve_flags(ctx.workload),
                         src_dir=ctx.src_dir,
                         log_path=os.path.join(ctx.tmp, "serve.log"))
    try:
        serve_start = cli.wait_healthy()
    except BaseException:
        print(f"--- server log tail ---\n{cli.log_tail()}", flush=True)
        raise
    finally:
        cli.stop()
    serving_collection = inputs.ieee_collection(corpus_order_seed(ctx),
                                                ctx.sizes)
    with phases("summary.build"):
        summary = inputs.ieee_summary(serving_collection)
    engine = TrexEngine(serving_collection, summary)
    oracle = Oracle(collection, cells, documents=tuple(documents))
    config = ServiceConfig(workers=2, autopilot_interval=None,
                           **SERVICE[ctx.workload])
    tracer = Tracer()
    with QueryService(engine, config) as service, \
            in_process_server(service) as port:
        warm = Tracer()
        with warm.installed(layers.WARM_TARGETS):
            warm_up(port, oracle, cells)
        built = service.stats()["telemetry"]["counters"].get(
            "build.entries", 0)
        schedule = inputs.client_schedule(ctx.seed, 0)
        off = run_serve_list(service, port, oracle, schedule,
                             documents[:per_pass], outcome)
        with tracer.installed(TARGETS):
            on = run_serve_list(service, port, oracle, schedule,
                                documents[per_pass:], outcome)
    report = layers.LayerReport(outcome.metrics)
    report.setup(phases.seconds, warm, built)
    report.put("cli.serve_start_s", serve_start)
    report.serve(tracer, on, sharded="shards" in SERVICE[ctx.workload])
    if ingesting:
        report.ingest(tracer, off, on)
    finish_trace(ctx, outcome, report, tracer, off.operations, on.operations)
    return outcome


# ----------------------------------------------------------------------
# cold_open
# ----------------------------------------------------------------------
COLD_METHODS = ("ta", "merge", "wand")
COLD_K = 10


@dataclass
class ColdRound:
    """One lattice round: per combo, save → load → first pass.  Seconds
    are at the combo's own reference speed when a meter ran beside it."""

    save: dict[tuple[str, str], float] = field(default_factory=dict)
    load: dict[tuple[str, str], float] = field(default_factory=dict)
    first_pass: dict[tuple[str, str], list[float]] = field(
        default_factory=dict)
    second_pass: dict[tuple[str, str], list[float]] = field(
        default_factory=dict)
    bytes_on_disk: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Tracer span-list positions bracketing each first pass.
    first_pass_marks: list[tuple[int, int]] = field(default_factory=list)
    #: ``ResultSet.stats`` of every evaluation, in order.
    stats: list[Any] = field(default_factory=list)

    def operations(self) -> list[float]:
        ops: list[float] = []
        for combo in self.save:
            ops += [self.save[combo], self.load[combo],
                    *self.first_pass[combo], *self.second_pass.get(combo, [])]
        return ops


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(path) for name in names)


class ColdOpen:
    """Two engines (one per codec) whose catalog is pointed at each
    backend in turn: the codec decides how segments are *built*, the
    backend only how they are stored, so three engines per codec would
    rebuild identical segments three times."""

    def __init__(self, ctx: Context, phases: Phases) -> None:
        self.ctx = ctx
        self.cells = [Cell(qid, COLD_K) for qid in inputs.IEEE_QUERY_IDS]
        with phases("corpus.generate"):
            collection = inputs.ieee_collection(ctx.seed, ctx.sizes,
                                                phases.tick)
        self.engines: dict[str, TrexEngine] = {}
        self.expected: dict[str, dict[tuple[int, str], list[AnswerKey]]] = {}
        self.built_entries = 0
        for codec in COMPRESSIONS:
            with phases("summary.build"):
                summary = inputs.ieee_summary(collection)
            engine = TrexEngine(collection, summary, compression=codec)
            phases.tick()
            with phases("build.warm"):
                for cell in self.cells:
                    installed = engine.materialize_for_query(cell.nexi)
                    self.built_entries += sum(segment.entry_count
                                              for segment in installed)
                    phases.tick()
            engine.auto_materialize = False
            self.engines[codec] = engine
            self.expected[codec] = {}
            for cell in self.cells:
                for method in COLD_METHODS:
                    self.expected[codec][(cell.qid, method)] = \
                        inputs.hit_keys(engine.evaluate(
                            cell.nexi, k=cell.k, method=method).hits)
                phases.tick()

    def query_pass(self, engine: TrexEngine, codec: str, outcome: Outcome,
                   result_stats: list[Any], tick: Tick) -> list[Lap]:
        """{ta, merge, wand} × k=10 × five queries; post-load answers
        must equal the pre-save ones."""
        laps = []
        for cell in self.cells:
            for method in COLD_METHODS:
                result, timed = lap(lambda: engine.evaluate(
                    cell.nexi, k=cell.k, method=method))
                laps.append(timed)
                tick()
                result_stats.append(result.stats)
                outcome.check(inputs.hit_keys(result.hits)
                              == self.expected[codec][(cell.qid, method)])
        return laps

    def round(self, outcome: Outcome, *, second_pass: bool = False,
              tracer: Tracer | None = None,
              meter: SpeedMeter | None = None) -> ColdRound:
        result = ColdRound()
        tick = meter.catch_up if meter else no_tick
        for backend in BACKEND_NAMES:
            for codec, engine in self.engines.items():
                combo = (backend, codec)
                directory = os.path.join(self.ctx.tmp,
                                         f"cold-{backend}-{codec}")
                shutil.rmtree(directory, ignore_errors=True)
                engine.backend = engine.catalog.backend = backend
                if meter:
                    since = meter.mark()
                    meter.sample()
                _, saved = lap(lambda: engine.save_indexes(directory))
                tick()
                result.bytes_on_disk[combo] = directory_bytes(directory)
                _, loaded = lap(lambda: engine.load_indexes(directory))
                tick()
                mark = len(tracer.spans) if tracer else 0
                first = self.query_pass(engine, codec, outcome, result.stats,
                                        tick)
                if tracer:
                    result.first_pass_marks.append((mark, len(tracer.spans)))
                second = self.query_pass(engine, codec, outcome, result.stats,
                                         tick) if second_pass else []
                factor = meter.factor(since) if meter else 1.0
                result.save[combo] = saved.at(factor)
                result.load[combo] = loaded.at(factor)
                result.first_pass[combo] = [x.at(factor) for x in first]
                if second_pass:
                    result.second_pass[combo] = [x.at(factor) for x in second]
        return result


def repeat_within(seconds: float, unit: Callable[[], Any],
                  at_least: int = 2) -> list[Any]:
    """Run *unit* *at_least* times (a median needs company), and again
    while the next run would still end inside the window."""
    results = []
    started = time.perf_counter()
    while True:
        unit_started = time.perf_counter()
        results.append(unit())
        now = time.perf_counter()
        if (len(results) >= at_least
                and now - started + (now - unit_started) > seconds):
            return results


def measure_cold_open(ctx: Context) -> Outcome:
    outcome = Outcome()
    phases = Phases(PROBE_SHARE)
    cold = ColdOpen(ctx, phases)
    outcome.metrics["setup_s"] = phases.finish()
    settle()
    meter = SpeedMeter(PROBE_SHARE)
    # One round (six combos) is longer than most windows; it repeats
    # every evaluation three times already, once per backend.
    rounds: list[ColdRound] = repeat_within(
        ctx.seconds, lambda: cold.round(outcome, meter=meter), at_least=1)
    # After a load every block is in memory whichever backend wrote the
    # store, so the three backends (and any further rounds) repeat each
    # (codec, query, method) evaluation.
    repetitions: dict[tuple[str, int], list[float]] = defaultdict(list)
    for result in rounds:
        for (_backend, codec), seconds in result.first_pass.items():
            for index, value in enumerate(seconds):
                repetitions[(codec, index)].append(value)
    latencies = [stats.median(seconds) for seconds in repetitions.values()]
    latency_metrics(outcome, latencies, len(latencies) / sum(latencies))
    outcome.info["speed_factor"] = Measure(meter.factor(), len(meter.slices))
    outcome.metrics["rss_mb"] = Measure(own_peak_rss_mib())
    outcome.metrics["index_bytes"] = Measure(
        float(sum(rounds[-1].bytes_on_disk.values())))
    for name, series in (("save_ms", "save"), ("open_ms", "load")):
        outcome.info[name] = Measure(stats.median(
            [sum(getattr(result, series).values()) * 1e3
             for result in rounds]), len(rounds))
    outcome.info["first_pass_ms"] = Measure(stats.median(
        [sum(map(sum, result.first_pass.values())) * 1e3
         for result in rounds]), len(rounds))
    outcome.report["rounds"] = [
        {"save": list(result.save.values()),
         "load": list(result.load.values()),
         "first_pass": list(result.first_pass.values())}
        for result in rounds]
    return outcome


def trace_cold_open(ctx: Context) -> Outcome:
    outcome = Outcome()
    phases = Phases()
    cold = ColdOpen(ctx, phases)
    meter = SpeedMeter(PROBE_SHARE)
    off = cold.round(outcome, second_pass=True, meter=meter)
    tracer = Tracer()
    engines = list(cold.engines.values())
    before = layers.engine_counters(engines)
    with tracer.installed(TARGETS):
        on = cold.round(outcome, second_pass=True, tracer=tracer,
                        meter=meter)
    after = layers.engine_counters(engines)
    report = layers.LayerReport(outcome.metrics)
    report.setup(phases.seconds, None, cold.built_entries)
    report.engine_counts(tracer, tracer.spans, before, after, on.stats)
    report.cold_open(tracer, off, on)
    finish_trace(ctx, outcome, report, tracer, off.operations(),
                 on.operations())
    return outcome


# ----------------------------------------------------------------------
# method_grid
# ----------------------------------------------------------------------
GRID_METHODS = (*inputs.FORCED_METHODS, "auto")


@dataclass
class GridPass:
    """One evaluation of all 105 cells."""

    seconds: dict[tuple[Cell, str], float] = field(default_factory=dict)
    cost: dict[tuple[Cell, str], float] = field(default_factory=dict)
    resolved: dict[Cell, str] = field(default_factory=dict)
    #: ``ResultSet.stats`` of every evaluation, in order.
    stats: list[Any] = field(default_factory=list)


@dataclass
class AdvisorCycle:
    measure: float = 0.0
    greedy: float = 0.0
    ilp: float = 0.0
    apply: float = 0.0
    plan_gain: float = 0.0
    plan_bytes: int = 0
    #: Catalog bytes of the three engines once the plan is applied.
    index_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.measure + self.greedy + self.ilp + self.apply


class MethodGrid:
    def __init__(self, ctx: Context, phases: Phases) -> None:
        with phases("corpus.generate"):
            ieee = inputs.ieee_collection(ctx.seed, ctx.sizes, phases.tick)
            wiki = inputs.wiki_collection(ctx.seed, ctx.sizes, phases.tick)
        with phases("summary.build"):
            ieee_summary = inputs.ieee_summary(ieee)
        phases.tick()
        self.engines = {"ieee": TrexEngine(ieee, ieee_summary),
                        "wiki": inputs.wiki_engine(wiki)}
        phases.tick()
        self.cells = inputs.grid_cells()
        self.built_entries = 0
        with phases("build.warm"):
            for qid in inputs.ALL_QUERY_IDS:
                query = PAPER_QUERIES[qid]
                installed = self.engines[query.collection] \
                    .materialize_for_query(query.nexi, scope="universal")
                self.built_entries += sum(segment.entry_count
                                          for segment in installed)
                phases.tick()
        for engine in self.engines.values():
            engine.auto_materialize = False
        # The advisor materializes query-scoped segments; it gets its own
        # engine so the grid's catalog stays the universal one.
        self.advisor_engine = inputs.ieee_engine(ieee)
        phases.tick()
        self.advisor = IndexAdvisor(self.advisor_engine)
        self.workload = Workload(
            [WorkloadQuery(str(qid), PAPER_QUERIES[qid].nexi, 10, 1.0)
             for qid in inputs.IEEE_QUERY_IDS], normalize=True)

    def all_engines(self) -> list[TrexEngine]:
        return [*self.engines.values(), self.advisor_engine]

    def grid_pass(self, outcome: Outcome,
                  meter: SpeedMeter | None = None) -> GridPass:
        """Every cell under every method, ``mode='flat'`` (the paper's
        setting); all four strategies and ``auto`` must equal ERA.  With
        a *meter* the seconds are at the pass's own reference speed."""
        result = GridPass()
        if meter:
            since = meter.mark()
            meter.sample()
        for cell in self.cells:
            engine = self.engines[PAPER_QUERIES[cell.qid].collection]
            reference = None
            for method in GRID_METHODS:
                started = time.perf_counter()
                answer = engine.evaluate(cell.nexi, k=cell.k, method=method,
                                         mode="flat")
                result.seconds[(cell, method)] = (time.perf_counter()
                                                  - started)
                if meter:
                    meter.catch_up()
                result.cost[(cell, method)] = answer.stats.cost
                result.stats.append(answer.stats)
                keys = inputs.hit_keys(answer.hits)
                if method == "era":
                    reference = keys
                if method == "auto":
                    result.resolved[cell] = answer.stats.method
                outcome.check(keys == reference)
        if meter:
            # An evaluation is all interpreter work: its CPU time is its
            # elapsed time.
            factor = meter.factor(since)
            for key in result.seconds:
                result.seconds[key] /= factor
        return result

    def advisor_cycle(self, outcome: Outcome) -> AdvisorCycle:
        """§4: measure, select greedily and by ILP, apply the ILP plan.
        Seconds are as measured."""
        cycle = AdvisorCycle()
        self.advisor.invalidate_measurements()
        started = time.perf_counter()
        self.advisor.measure(self.workload)
        cycle.measure = time.perf_counter() - started
        started = time.perf_counter()
        greedy = self.advisor.recommend(self.workload, ADVISOR_BUDGET,
                                        method="greedy")
        cycle.greedy = time.perf_counter() - started
        started = time.perf_counter()
        ilp = self.advisor.recommend(self.workload, ADVISOR_BUDGET,
                                     method="ilp")
        cycle.ilp = time.perf_counter() - started
        started = time.perf_counter()
        self.advisor.apply(self.workload, ilp)
        cycle.apply = time.perf_counter() - started
        cycle.plan_gain, cycle.plan_bytes = ilp.total_gain, ilp.total_size
        cycle.index_bytes = sum(engine.catalog.total_bytes
                                for engine in self.all_engines())
        outcome.check(ilp.total_gain >= greedy.total_gain - 1e-6)
        outcome.check(ilp.total_size <= ADVISOR_BUDGET
                      and greedy.total_size <= ADVISOR_BUDGET)
        return cycle


def measure_method_grid(ctx: Context) -> Outcome:
    outcome = Outcome()
    phases = Phases(PROBE_SHARE)
    grid = MethodGrid(ctx, phases)
    outcome.metrics["setup_s"] = phases.finish()
    settle()
    meter = SpeedMeter(PROBE_SHARE)
    passes: list[GridPass] = repeat_within(
        ctx.seconds, lambda: grid.grid_pass(outcome, meter))
    # The window is the grid's; one advisor cycle follows it (its times
    # come from the traced pass, its plan decides the footprint).
    cycle = grid.advisor_cycle(outcome)
    cell_times = layers.cell_medians(passes)
    latencies = list(cell_times.values())
    latency_metrics(outcome, latencies, len(latencies) / sum(latencies))
    outcome.metrics["rss_mb"] = Measure(own_peak_rss_mib())
    outcome.metrics["index_bytes"] = Measure(float(cycle.index_bytes))
    outcome.info["speed_factor"] = Measure(meter.factor(), len(meter.slices))
    outcome.info["grid_eval_ms"] = Measure(
        sum(seconds for (_cell, method), seconds in cell_times.items()
            if method != "auto") * 1e3, len(passes))
    outcome.info["auto_eval_ms"] = Measure(
        sum(seconds for (_cell, method), seconds in cell_times.items()
            if method == "auto") * 1e3, len(passes))
    outcome.info["advisor_cycle_ms"] = Measure(cycle.seconds * 1e3)
    outcome.report["passes"] = [
        [(cell.label, method, seconds) for (cell, method), seconds
         in grid_pass.seconds.items()] for grid_pass in passes]
    outcome.report["advisor"] = vars(cycle)
    return outcome


def trace_method_grid(ctx: Context) -> Outcome:
    outcome = Outcome()
    phases = Phases()
    grid = MethodGrid(ctx, phases)
    meter = SpeedMeter(PROBE_SHARE)
    off = (grid.grid_pass(outcome, meter), grid.advisor_cycle(outcome))
    tracer = Tracer()
    before = layers.engine_counters(grid.all_engines())
    with tracer.installed(TARGETS):
        on_grid = grid.grid_pass(outcome, meter)
        grid_after = layers.engine_counters(grid.all_engines())
        grid_spans = len(tracer.spans)
        on_cycle = grid.advisor_cycle(outcome)
    report = layers.LayerReport(outcome.metrics)
    report.setup(phases.seconds, None, grid.built_entries)
    report.method_grid(off[0], off[1])
    report.engine_counts(tracer, tracer.spans[:grid_spans], before,
                         grid_after, on_grid.stats)
    finish_trace(
        ctx, outcome, report, tracer,
        [*off[0].seconds.values(), off[1].measure, off[1].apply],
        [*on_grid.seconds.values(), on_cycle.measure, on_cycle.apply])
    outcome.report["agreement"] = layers.agreement_table(off[0])
    return outcome


# ----------------------------------------------------------------------
RUNNERS: dict[str, tuple[Callable[[Context], Outcome],
                         Callable[[Context], Outcome]]] = {
    **{name: (measure_serve, trace_serve) for name in SERVICE},
    "cold_open": (measure_cold_open, trace_cold_open),
    "method_grid": (measure_method_grid, trace_method_grid),
}


def run(ctx: Context, traced: bool) -> Outcome:
    measure, trace = RUNNERS[ctx.workload]
    return trace(ctx) if traced else measure(ctx)
