"""The metric dictionary: every workload and metric the ledger reports.

``BENCHMARK.json`` at the repo root is generated from this module
(``run.py --print-spec``) and ``test_ledger.py`` checks the two agree,
so a name, unit or bound is written down once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Seconds one run measures (the driver passes it as ``--seconds``).
RUN_SECONDS = 10

SERVE = ("search_1x1", "search_cached", "search_2x2", "ingest_mix")
ALL = (*SERVE, "cold_open", "method_grid")
#: The workloads ``BENCHMARK.json`` hands the driver.  Its 4 + 22 x
#: workloads runs must end within 3420 s; six workloads at ten seconds
#: each came to 98 % of that on the box's slower days, so the most
#: expensive serve workload is left to the whole-ledger run
#: (``run.py`` without ``--workload``), which runs all six.
LISTED = tuple(name for name in ALL if name != "search_2x2")

WORKLOADS: dict[str, str] = {
    "search_1x1": "repro serve, cache off, 1 shard x 1 replica, one "
                  "closed-loop client: every request evaluates (nexi, "
                  "retrieval, storage.cost); what engine work must move",
    "search_cached": "same schedule, result cache on: every request is a "
                     "cache hit, so service.server and service.cache do all "
                     "the work; bypass workload for engine optimisations",
    "search_2x2": "same schedule, 2 shards x 2 replicas, cache off: adds "
                  "shard scatter-gather and replica leases on identical "
                  "engine work; minus search_1x1 = the coordinator's price",
    "ingest_mix": "one closed-loop reader beside a scheduled /ingest writer, "
                  "cache and auto-compact on: write lock, epoch "
                  "invalidation, index mutation and delta runs",
    "cold_open": "in-process save, load and first query pass over {pager, "
                 "sqlite, mmap} x {none, zlib}: the only place real decode, "
                 "decompress and backend reads happen",
    "method_grid": "in-process flat mode, seven paper queries x k x {era, ta, "
                   "merge, wand, auto}, then an advisor cycle: Figs. 4-6 in "
                   "seconds, isolated from service",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Workloads on which the metric is measured (0 is printed elsewhere).
    workloads: tuple[str, ...]
    meaning: str
    #: Relative worsening that counts as a regression (end-to-end only).
    bound: float | None = None


#: Every timing is reported at reference speed (``speed.py``).  Bounds
#: follow the spread then left over ten seeds on the 2-core shared box
#: the ledger was defined on (README, "Steadiness"): timings repeat to
#: 0.02-0.11, a third of 0.25 or thereabouts; the two deterministic
#: footprints are held tighter.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", ALL,
           "corpus build and dump, oracle, then the workload's own set-up: "
           "spawn to /healthz and warm-up, or engine builds; at reference "
           "speed", 0.25),
    Metric("query_qps", "1/s", "higher", ALL,
           "queries answered correctly per second at reference speed: "
           "/search replies / window (serve); evaluations / the sum of "
           "their typical times (in-process)", 0.25),
    Metric("query_mid_ms", "ms", "lower", ALL,
           "typical latency of one query at reference speed, as the mean of "
           "the middle half: client-side /search, or one engine.evaluate in "
           "the in-process workloads", 0.25),
    Metric("rss_mb", "MiB", "lower", ALL,
           "peak resident set (VmHWM) of the process that hosts the engine: "
           "the server, or the benchmark itself in-process", 0.10),
    Metric("index_bytes", "B", "lower", ALL,
           "index footprint: catalog bytes from /stats (serve), bytes on "
           "disk after save summed over the six combos (cold_open), "
           "catalog bytes of the three engines (method_grid)", 0.05),
)


_COLD = ("cold_open",)
_GRID = ("method_grid",)
_INGEST = ("ingest_mix",)
_SHARDED = ("search_2x2",)
_EVALUATING = ("search_1x1", "search_2x2", "ingest_mix")
_ENGINE = (*_EVALUATING, "cold_open", "method_grid")

PER_LAYER: tuple[Metric, ...] = (
    # -- operation metrics the universal end-to-end set cannot carry ----
    Metric("ingest_p50_ms", "ms", "lower", _INGEST,
           "/ingest ack latency, median"),
    Metric("save_ms", "ms", "lower", _COLD,
           "sum over the 6 combos of save_indexes"),
    Metric("open_ms", "ms", "lower", _COLD,
           "sum over the 6 combos of load_indexes"),
    Metric("first_pass_ms", "ms", "lower", _COLD,
           "sum over the 6 combos of the 15-evaluation first pass"),
    Metric("grid_eval_ms", "ms", "lower", _GRID,
           "sum of the 84 forced-cell times"),
    Metric("auto_eval_ms", "ms", "lower", _GRID,
           "sum of the 21 auto-cell times"),
    Metric("advisor_cycle_ms", "ms", "lower", _GRID,
           "measure + recommend x2 + apply: the write-lock pause of one "
           "autopilot cycle"),
    # -- cli ------------------------------------------------------------
    Metric("cli.serve_start_s", "s", "lower", SERVE,
           "repro serve: spawn to /healthz 200"),
    # -- service.server -------------------------------------------------
    Metric("service.server.http_ms", "ms", "lower", SERVE,
           "client latency minus the QueryService.search|ingest span, median"),
    Metric("service.server.response_bytes", "B", "lower", SERVE,
           "median /search reply body"),
    # -- service.cache --------------------------------------------------
    Metric("service.cache.hit_ratio", "ratio", "higher", SERVE,
           "result-cache hits / lookups over the traced list"),
    Metric("service.cache.get_us", "us", "lower", SERVE,
           "ResultCache.get span, median"),
    Metric("service.cache.invalidations", "count", "lower", SERVE,
           "entries dropped for a stale epoch"),
    # -- service.executor -----------------------------------------------
    Metric("service.executor.queue_wait_ms", "ms", "lower", _EVALUATING,
           "BoundedExecutor.submit to task start, median"),
    Metric("service.executor.rejected", "count", "lower", SERVE,
           "submissions refused by admission control"),
    # -- service.locks --------------------------------------------------
    Metric("service.locks.read_wait_ms", "ms", "lower", _EVALUATING,
           "acquire_read span, highest supported percentile"),
    Metric("service.locks.write_wait_ms", "ms", "lower", _INGEST,
           "acquire_write span, median"),
    Metric("service.locks.write_hold_ms", "ms", "lower", _INGEST,
           "acquire_write end to release_write, median"),
    # -- nexi -----------------------------------------------------------
    Metric("nexi.parse_us", "us", "lower", _EVALUATING,
           "parse_nexi span, median"),
    Metric("nexi.translate_us", "us", "lower", _EVALUATING,
           "translate_query span, median"),
    # -- retrieval ------------------------------------------------------
    Metric("retrieval.engine.evaluate_ms", "ms", "lower", _ENGINE,
           "TrexEngine.evaluate_translated per request, median"),
    Metric("retrieval.engine.choose_method_us", "us", "lower",
           (*_EVALUATING, "method_grid"), "choose_method span, median"),
    Metric("retrieval.era.eval_ms", "ms", "lower", _GRID,
           "sum of the 21 ERA cell times"),
    Metric("retrieval.ta.eval_ms", "ms", "lower", _GRID,
           "sum of the 21 TA cell times"),
    Metric("retrieval.merge.eval_ms", "ms", "lower", _GRID,
           "sum of the 21 Merge cell times"),
    Metric("retrieval.wand.eval_ms", "ms", "lower", _GRID,
           "sum of the 21 WAND cell times"),
    Metric("retrieval.auto_regret_pct", "%", "lower", _GRID,
           "(auto - sum of per-cell fastest) / sum of per-cell fastest"),
    Metric("retrieval.blocks_read", "count", "lower", _ENGINE,
           "blocks fetched (block-cache misses), traced list total"),
    Metric("retrieval.blocks_skipped", "count", "higher", _ENGINE,
           "blocks pruned by resident headers"),
    Metric("retrieval.entries_decoded", "count", "lower", _ENGINE,
           "entries decoded across all blocks"),
    Metric("retrieval.rows_skipped", "count", "lower", _ENGINE,
           "rows read but outside the query's sids"),
    Metric("retrieval.skip_ratio", "ratio", "higher", _ENGINE,
           "blocks skipped / (read + skipped)"),
    Metric("retrieval.wand.pivot_advances", "count", "higher", _ENGINE,
           "WAND pivot rounds that leapt a list"),
    Metric("retrieval.wand.docs_evaluated", "count", "lower", _ENGINE,
           "documents the DAAT loop fully evaluated"),
    Metric("retrieval.ta.depth_fraction", "ratio", "lower", _ENGINE,
           "TA rows read / rows in its lists (paper section 5.2)"),
    # -- scoring --------------------------------------------------------
    Metric("scoring.score_block_ms", "ms", "lower", _GRID,
           "ElementScorer.score_block (ERA and builds only), traced total"),
    Metric("scoring.score_block_entries", "count", "lower", _GRID,
           "entries scored"),
    # -- storage.blocks -------------------------------------------------
    Metric("storage.blocks.decode_ms", "ms", "lower", _ENGINE,
           "BlockCodec.decode_columns, total"),
    Metric("storage.blocks.decode_entries_per_s", "1/s", "higher",
           ("ingest_mix", "cold_open"), "entries decoded / decode time"),
    Metric("storage.blocks.read_block_calls", "count", "lower", _ENGINE,
           "BlockSequence.read_block_columns calls"),
    Metric("storage.blocks.memo_hit_ratio", "ratio", "higher", _ENGINE,
           "read_block_columns calls that did not reach decode_columns "
           "(cold_open: first pass only)"),
    # -- storage.cost ---------------------------------------------------
    Metric("storage.cost.charges", "count", "lower", _ENGINE,
           "CostModel operations charged per evaluated request"),
    Metric("storage.cost.ns_per_charge", "ns", "lower", _ENGINE,
           "one CostModel.compare() call, calibrated"),
    Metric("storage.cost.est_share", "ratio", "lower", _ENGINE,
           "charges x ns_per_charge / evaluate time"),
    Metric("storage.cost.rank_rho", "ratio", "higher", _GRID,
           "Spearman of simulated cost vs seconds over the 84 forced cells"),
    Metric("storage.cost.who_wins_agreement", "ratio", "higher", _GRID,
           "share of the 21 cells where argmin cost = argmin seconds"),
    # -- storage.pager --------------------------------------------------
    Metric("storage.pager.hit_ratio", "ratio", "higher", _ENGINE,
           "simulated block pool hits / touches"),
    Metric("storage.pager.evictions", "count", "lower", _ENGINE,
           "simulated block pool evictions"),
    # -- storage.table --------------------------------------------------
    Metric("storage.table.write_ms", "ms", "lower", _INGEST,
           "Table.insert + Table.delete per ingest, median"),
    Metric("storage.table.writes", "count", "lower", _INGEST,
           "Table.insert + Table.delete calls per ingest"),
    # -- index ----------------------------------------------------------
    Metric("index.postings.extend_ms", "ms", "lower", _INGEST,
           "extend_posting_lists per ingest, median"),
    Metric("index.postings.rebuild_ms", "ms", "lower", _INGEST,
           "BlockedPostings.rebuild per ingest, median"),
    Metric("index.elements.rebuild_ms", "ms", "lower", _INGEST,
           "BlockedElements.rebuild per ingest, median"),
    Metric("index.catalog.append_delta_ms", "ms", "lower", _INGEST,
           "IndexCatalog.append_delta per ingest, median"),
    Metric("index.catalog.delta_runs", "count", "lower", _INGEST,
           "delta runs resident before the forced compact"),
    Metric("index.catalog.compact_ms", "ms", "lower", _INGEST,
           "the forced POST /compact"),
    Metric("index.catalog.save_ms", "ms", "lower", _COLD,
           "IndexCatalog.save, sum over combos"),
    Metric("index.catalog.load_ms", "ms", "lower", _COLD,
           "IndexCatalog.load, sum over combos"),
    Metric("index.tables.load_ms", "ms", "lower", _COLD,
           "Elements + PostingLists Table.load, sum over combos"),
    # -- backend --------------------------------------------------------
    *(Metric(f"backend.{backend}.{what}_ms", "ms", "lower", _COLD,
             f"{verb} on {backend}, none + zlib")
      for backend in ("pager", "sqlite", "mmap")
      for what, verb in (("open", "load_indexes"), ("save", "save_indexes"))),
    Metric("backend.read_ms", "ms", "lower", _COLD,
           "StorageBackend.read + read_block_bytes, total"),
    Metric("backend.read_bytes", "B", "lower", _COLD, "bytes they returned"),
    Metric("backend.write_ms", "ms", "lower", _COLD,
           "StorageBackend.write + sync, total"),
    Metric("backend.write_bytes", "B", "lower", _COLD, "bytes written"),
    Metric("backend.compression.decompress_ms", "ms", "lower", _COLD,
           "decompress, total"),
    Metric("backend.compression.compress_ms", "ms", "lower", _COLD,
           "compress, total"),
    Metric("backend.compression.ratio", "ratio", "lower", _COLD,
           "zlib bytes on disk / none bytes on disk"),
    # -- build, corpus, summary -----------------------------------------
    Metric("build.warm_ms", "ms", "lower", ALL,
           "warm_segments / materialize_for_query during set-up, total"),
    Metric("build.entries_per_s", "1/s", "higher", ALL,
           "entries of the segments built / build.warm_ms"),
    Metric("corpus.generate_s", "s", "lower", ALL,
           "synthetic corpus build"),
    Metric("corpus.parse_ms", "ms", "lower", _INGEST,
           "XMLParser.parse per ingest, median"),
    Metric("summary.build_ms", "ms", "lower", ALL,
           "IncomingSummary construction"),
    # -- shard, replica -------------------------------------------------
    Metric("shard.coordinator_ms", "ms", "lower", _SHARDED,
           "ShardedEngine.evaluate_translated self time, median"),
    Metric("shard.fanout", "count", "lower", _SHARDED,
           "shards probed per query, mean"),
    Metric("shard.pruned_ratio", "ratio", "higher", _SHARDED,
           "shards pruned / (probed + pruned)"),
    Metric("shard.straggler_ms", "ms", "lower", _SHARDED,
           "max - mean of the per-shard spans, median"),
    Metric("replica.read_overhead_ms", "ms", "lower", _SHARDED,
           "ReplicaGroup.run_read self time, median"),
    Metric("replica.reads", "count", "lower", _SHARDED,
           "replica read leases granted"),
    Metric("replica.failovers", "count", "lower", _SHARDED,
           "reads retried on a sibling (expected 0)"),
    # -- selfmanage -----------------------------------------------------
    Metric("selfmanage.measure_ms", "ms", "lower", _GRID,
           "IndexAdvisor.measure"),
    Metric("selfmanage.recommend_greedy_us", "us", "lower", _GRID,
           "recommend(greedy)"),
    Metric("selfmanage.recommend_ilp_us", "us", "lower", _GRID,
           "recommend(ilp)"),
    Metric("selfmanage.apply_ms", "ms", "lower", _GRID, "apply"),
    Metric("selfmanage.plan_gain", "cost", "higher", _GRID,
           "ILP plan gain in simulated cost units (exact)"),
    Metric("selfmanage.plan_bytes", "B", "lower", _GRID,
           "ILP plan size (exact, <= budget)"),
    # -- harness --------------------------------------------------------
    Metric("loadgen.ingest_late_ms", "ms", "lower", _INGEST,
           "how late the ingest schedule ran, worst case"),
    Metric("trace.overhead_pct", "%", "lower", ALL,
           "median over paired operations of traced / untraced time, - 1"),
)


def reported(metrics: tuple[Metric, ...],
             workload: str | None = None) -> tuple[Metric, ...]:
    """The metrics of *metrics* a run's result line carries: those some
    listed workload measures (``BENCHMARK.json``'s set, for the driver)
    plus, off the list, those *workload* itself measures."""
    return tuple(metric for metric in metrics
                 if workload in metric.workloads
                 or set(metric.workloads) & set(LISTED))


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name]}
                      for name in LISTED],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in reported(END_TO_END)],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in reported(PER_LAYER)],
    }


def load_benchmark_json() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)
