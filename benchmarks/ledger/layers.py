"""Per-layer metrics, derived from one traced pass.

"span" metrics come from the wrappers of :mod:`trace`; "count" metrics
from the program's public results (``ResultSet.stats``, ``CostModel``
counters, ``service.stats()``), which repeat exactly for the
single-client traced pass.  A layer's self time is its span minus the
part its children cover.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from . import stats
from .inputs import FORCED_METHODS, Cell
from .stats import Measure
from .trace import Span, Tracer, children_of, self_times

if TYPE_CHECKING:
    from .workloads import AdvisorCycle, ColdRound, GridPass, ListRun

#: Only the segment warm-up is spanned while set-up runs.
WARM_TARGETS = (
    ("repro.retrieval.engine:TrexEngine", "warm_segments", "build.warm",
     "span", None),
    ("repro.shard.engine:ShardedEngine", "warm_segments", "build.warm",
     "span", None),
)

_RETRIEVAL_COUNTS = ("blocks_read", "blocks_skipped", "entries_decoded",
                     "rows_skipped")
_WAND_COUNTS = ("pivot_advances", "docs_evaluated")


def _ms(spans: Iterable[Span]) -> list[float]:
    return [span.seconds * 1e3 for span in spans]


def _us(spans: Iterable[Span]) -> list[float]:
    return [span.seconds * 1e6 for span in spans]


def _cells(grid: GridPass) -> list[Cell]:
    return sorted({cell for cell, _method in grid.seconds},
                  key=lambda cell: (cell.qid, cell.k))


def _ranked(table: dict[tuple[Cell, str], float], cell: Cell) -> list[str]:
    """The forced methods, best (lowest) first, by *table* on *cell*."""
    return sorted(FORCED_METHODS, key=lambda method: table[(cell, method)])


def _service_counters(snapshot: dict) -> dict[str, float]:
    """``service.stats()`` in the shape of :func:`engine_counters`."""
    return {**{"pool." + name: value
               for name, value in snapshot["block_cache"].items()},
            **{"cost." + name: value for name, value
               in snapshot["worker_costs"]["counters"].items()}}


def _outermost(spans: list[Span], by_id: dict[int, Span]) -> list[Span]:
    """Spans that are not nested in a span of the same name."""
    return [span for span in spans
            if span.parent not in by_id
            or by_id[span.parent].name != span.name]


def engine_counters(engines: Iterable[Any]) -> dict[str, float]:
    """Summed ``CostModel`` counters and block-pool statistics."""
    totals: dict[str, float] = defaultdict(float)
    for engine in engines:
        for name, value in engine.cost_model.counters.as_dict().items():
            totals["cost." + name] += value
        for name, value in engine.catalog.cache_stats().items():
            if name in ("hits", "misses", "evictions"):
                totals["pool." + name] += value
    return totals


def cell_medians(passes: list[GridPass]) -> dict[tuple[Cell, str], float]:
    """Cell time = median over the passes that evaluated it."""
    return {key: stats.median([grid.seconds[key] for grid in passes])
            for key in passes[0].seconds}


def agreement_table(grid: GridPass) -> dict:
    """Cost-model agreement: per cell, simulated cost and seconds with
    their ranks among the four forced methods, and the cells where the
    two rankings pick different winners."""
    rows, disagreements = [], []
    for cell in _cells(grid):
        by_cost = _ranked(grid.cost, cell)
        by_time = _ranked(grid.seconds, cell)
        for method in FORCED_METHODS:
            rows.append({
                "query": cell.qid, "k": cell.k, "method": method,
                "simulated_cost": round(grid.cost[(cell, method)], 3),
                "seconds": grid.seconds[(cell, method)],
                "rank_by_cost": by_cost.index(method) + 1,
                "rank_by_seconds": by_time.index(method) + 1,
            })
        if by_cost[0] != by_time[0] or grid.resolved[cell] != by_time[0]:
            disagreements.append({
                "query": cell.qid, "k": cell.k,
                "cheapest_by_cost": by_cost[0],
                "fastest_by_seconds": by_time[0],
                "auto_resolved_to": grid.resolved[cell],
                "auto_seconds": grid.seconds[(cell, "auto")],
                "fastest_seconds": grid.seconds[(cell, by_time[0])],
            })
    return {"cells": rows, "disagreements": disagreements}


class LayerReport:
    """Fills ``metrics`` (name → Measure) for one traced pass."""

    def __init__(self, metrics: dict[str, Measure]) -> None:
        self.metrics = metrics
        self._charges_per_evaluation = 0.0
        self._evaluate_seconds = 0.0

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = Measure(float(value), n)

    def _median(self, name: str, values: list[float]) -> None:
        self.put(name, stats.median(values), len(values))

    # ------------------------------------------------------------------
    def setup(self, phases: dict[str, float], warm: Tracer | None,
              built_entries: int) -> None:
        """Set-up layers: corpus, summary, segment builds."""
        self.put("corpus.generate_s", phases.get("corpus.generate", 0.0))
        self.put("summary.build_ms", phases.get("summary.build", 0.0) * 1e3)
        if warm is None:
            warm_seconds = phases.get("build.warm", 0.0)
        else:
            by_id = {span.id: span for span in warm.spans}
            warm_seconds = sum(span.seconds for span in _outermost(
                warm.named("build.warm"), by_id))
        self.put("build.warm_ms", warm_seconds * 1e3)
        self.put("build.entries_per_s",
                 built_entries / warm_seconds if warm_seconds else 0.0,
                 built_entries)

    # ------------------------------------------------------------------
    def blocks(self, tracer: Tracer, spans: list[Span]) -> None:
        """Block reads and decodes among *spans*.  A read that did not
        reach ``decode_columns`` was served by the sequence's memo."""
        reads = {span.id for span in spans
                 if span.name == "storage.blocks.read_block"}
        decodes = [span for span in spans
                   if span.name == "storage.blocks.decode"]
        seconds = sum(span.seconds for span in decodes)
        entries = tracer.counts["storage.blocks.entries"]
        self.put("storage.blocks.decode_ms", seconds * 1e3, len(decodes))
        self.put("storage.blocks.decode_entries_per_s",
                 entries / seconds if seconds else 0.0, entries)
        self.put("storage.blocks.read_block_calls", len(reads))
        missed = sum(span.parent in reads for span in decodes)
        self.put("storage.blocks.memo_hit_ratio",
                 1.0 - missed / len(reads) if reads else 0.0, len(reads))

    def _retrieval_counts(self, rows: list[Any], tracer: Tracer) -> None:
        """*rows* expose the ``EvaluationStats`` counter names, as
        attributes (in-process) or payload keys (served)."""
        def total(name: str) -> int:
            return sum(row[name] if isinstance(row, dict)
                       else getattr(row, name) for row in rows)

        for name in _RETRIEVAL_COUNTS:
            self.put("retrieval." + name, total(name), len(rows))
        for name in _WAND_COUNTS:
            self.put("retrieval.wand." + name, total(name), len(rows))
        read, skipped = total("blocks_read"), total("blocks_skipped")
        self.put("retrieval.skip_ratio",
                 skipped / (read + skipped) if read + skipped else 0.0,
                 len(rows))
        rows_total = tracer.counts["retrieval.ta.rows_total"]
        self.put("retrieval.ta.depth_fraction",
                 tracer.counts["retrieval.ta.rows_read"] / rows_total
                 if rows_total else 0.0, len(rows))

    def _scoring(self, tracer: Tracer) -> None:
        scored = tracer.named("scoring.score_block")
        self.put("scoring.score_block_ms",
                 sum(span.seconds for span in scored) * 1e3, len(scored))
        self.put("scoring.score_block_entries",
                 tracer.counts["scoring.entries"], len(scored))

    def _pool_and_charges(self, before: dict, after: dict,
                          evaluations: int) -> None:
        def delta(name: str) -> float:
            return after.get(name, 0) - before.get(name, 0)

        touches = delta("pool.hits") + delta("pool.misses")
        self.put("storage.pager.hit_ratio",
                 delta("pool.hits") / touches if touches else 0.0,
                 int(touches))
        self.put("storage.pager.evictions", delta("pool.evictions"))
        charges = sum(delta(name) for name in after
                      if name.startswith("cost."))
        self._charges_per_evaluation = (charges / evaluations
                                        if evaluations else 0.0)
        self.put("storage.cost.charges", self._charges_per_evaluation,
                 evaluations)

    def cost_share(self, ns_per_charge: float) -> None:
        """Price the counted charges: their calibrated time as a share
        of the time spent evaluating."""
        self.put("storage.cost.ns_per_charge", ns_per_charge)
        estimated = self._charges_per_evaluation * ns_per_charge * 1e-9
        self.put("storage.cost.est_share",
                 estimated / self._evaluate_seconds
                 if self._evaluate_seconds else 0.0)

    # ------------------------------------------------------------------
    def serve(self, tracer: Tracer, run: ListRun, *, sharded: bool) -> None:
        """The served request path, from the traced list *run*."""
        spans = tracer.spans
        by_id = {span.id: span for span in spans}
        selfs = self_times(spans)
        by_request: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            by_request[span.request].append(span)

        # service.server: client latency minus the facade span, paired in
        # send order (one client, so the orders agree).
        roots = sorted(tracer.named("service.search"), key=lambda s: s.start)
        if len(roots) != len(run.samples):
            raise RuntimeError(
                f"{len(run.samples)} searches but {len(roots)} "
                f"service.search spans")
        http = [(sample.seconds - root.seconds) * 1e3
                for sample, root in zip(run.samples, roots)]
        ingest_roots = sorted(tracer.named("service.ingest"),
                              key=lambda s: s.start)
        http += [(reply.seconds - root.seconds) * 1e3
                 for reply, root in zip(run.ingests, ingest_roots)]
        self._median("service.server.http_ms", http)
        self._median("service.server.response_bytes",
                     [float(sample.nbytes) for sample in run.samples])

        # service.cache / executor: the facade's own public snapshots.
        cache_before, cache_after = run.before["cache"], run.after["cache"]
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        self.put("service.cache.hit_ratio",
                 hits / (hits + misses) if hits + misses else 0.0,
                 hits + misses)
        self._median("service.cache.get_us",
                     _us(tracer.named("service.cache.get")))
        self.put("service.cache.invalidations",
                 cache_after["invalidations"] - cache_before["invalidations"])
        self._median("service.executor.queue_wait_ms",
                     _ms(tracer.named("service.executor.queue_wait")))
        self.put("service.executor.rejected",
                 run.after["executor"]["rejected"]
                 - run.before["executor"]["rejected"])

        # service.locks
        read_waits = _ms(tracer.named("service.locks.acquire_read"))
        self.put("service.locks.read_wait_ms", stats.tail(read_waits)[1],
                 len(read_waits))
        acquires = tracer.named("service.locks.acquire_write")
        self._median("service.locks.write_wait_ms", _ms(acquires))
        releases = tracer.named("service.locks.release_write")
        holds = []
        for acquire in acquires:
            release = min((r for r in releases if r.thread == acquire.thread
                           and r.start >= acquire.end),
                          key=lambda r: r.start, default=None)
            if release is not None:
                holds.append((release.start - acquire.end) * 1e3)
        self._median("service.locks.write_hold_ms", holds)

        # nexi
        self._median("nexi.parse_us", _us(tracer.named("nexi.parse")))
        self._median("nexi.translate_us", _us(_outermost(
            tracer.named("nexi.translate"), by_id)))

        # retrieval: per searched request, the engine time under it.
        evaluated = []
        for root in roots:
            seconds = sum(span.seconds for span in by_request[root.request]
                          if span.name == "retrieval.engine.evaluate")
            if seconds:
                evaluated.append(seconds)
        self._median("retrieval.engine.evaluate_ms",
                     [seconds * 1e3 for seconds in evaluated])
        self._evaluate_seconds = (sum(evaluated) / len(evaluated)
                                  if evaluated else 0.0)
        self._median("retrieval.engine.choose_method_us", _us(_outermost(
            tracer.named("retrieval.engine.choose_method"), by_id)))
        fresh = [sample.info for sample in run.samples
                 if sample.info and not sample.info.get("cached")]
        self._retrieval_counts(fresh, tracer)
        self._scoring(tracer)
        self.blocks(tracer, spans)

        self._pool_and_charges(_service_counters(run.before),
                               _service_counters(run.after), len(fresh))

        if sharded:
            coordinator = tracer.named("shard.evaluate")
            self._median("shard.coordinator_ms",
                         [selfs[span.id] * 1e3 for span in coordinator])
            grouped = children_of(spans)
            stragglers = []
            for span in coordinator:
                parts = [child.seconds for child in grouped.get(span.id, ())
                         if child.name == "replica.run_read"]
                if parts:
                    stragglers.append(
                        (max(parts) - sum(parts) / len(parts)) * 1e3)
            self._median("shard.straggler_ms", stragglers)
            reads = tracer.named("replica.run_read")
            self._median("replica.read_overhead_ms",
                         [selfs[span.id] * 1e3 for span in reads])
            sections = [info["shards"] for info in fresh if "shards" in info]
            probed = sum(section["probed"] for section in sections)
            pruned = sum(section["pruned"] for section in sections)
            self.put("shard.fanout",
                     probed / len(sections) if sections else 0.0,
                     len(sections))
            self.put("shard.pruned_ratio",
                     pruned / (probed + pruned) if probed + pruned else 0.0,
                     len(sections))
            self.put("replica.reads",
                     sum(s["replica_reads"] for s in sections), len(sections))
            self.put("replica.failovers",
                     sum(s["replica_failovers"] for s in sections),
                     len(sections))

    # ------------------------------------------------------------------
    def ingest(self, tracer: Tracer, off: ListRun, on: ListRun) -> None:
        """The write path: per ``service.ingest`` request, what each
        index and storage boundary under it took."""
        spans = tracer.spans
        per_ingest: dict[str, list[float]] = defaultdict(list)
        writes: list[int] = []
        for root in tracer.named("service.ingest"):
            sums: dict[str, float] = defaultdict(float)
            calls = 0
            for span in spans:
                if span.request == root.request:
                    sums[span.name] += span.seconds
                    calls += span.name == "storage.table.write"
            for name, seconds in sums.items():
                per_ingest[name].append(seconds * 1e3)
            writes.append(calls)
        for metric, span_name in (
                ("storage.table.write_ms", "storage.table.write"),
                ("index.postings.extend_ms", "index.postings.extend"),
                ("index.postings.rebuild_ms", "index.postings.rebuild"),
                ("index.elements.rebuild_ms", "index.elements.rebuild"),
                ("index.catalog.append_delta_ms",
                 "index.catalog.append_delta"),
                ("corpus.parse_ms", "corpus.parse")):
            self._median(metric, per_ingest[span_name])
        self._median("storage.table.writes", [float(n) for n in writes])
        self._median("ingest_p50_ms",
                     [reply.seconds * 1e3 for reply in off.ingests])
        self.put("index.catalog.delta_runs",
                 on.ingests[-1].json()["delta_runs"] if on.ingests else 0)
        self._median("index.catalog.compact_ms",
                     _ms(tracer.named("service.compact")))
        # The traced list is one sequential client: nothing runs late.
        self.put("loadgen.ingest_late_ms", 0.0, len(on.ingests))

    # ------------------------------------------------------------------
    def engine_counts(self, tracer: Tracer, spans: list[Span], before: dict,
                      after: dict, result_stats: list[Any]) -> None:
        """In-process workloads: the same count metrics, read from
        ``ResultSet.stats`` and the engines' own counters over the
        evaluations that produced *spans*."""
        evaluations = [span for span in spans
                       if span.name == "retrieval.engine.evaluate"]
        self._median("retrieval.engine.evaluate_ms", _ms(evaluations))
        self._evaluate_seconds = (
            sum(span.seconds for span in evaluations) / len(evaluations)
            if evaluations else 0.0)
        by_id = {span.id: span for span in spans}
        self._median("retrieval.engine.choose_method_us", _us(_outermost(
            [span for span in spans
             if span.name == "retrieval.engine.choose_method"], by_id)))
        self._retrieval_counts(result_stats, tracer)
        self._scoring(tracer)
        self.blocks(tracer, spans)
        self._pool_and_charges(before, after, len(result_stats))

    def cold_open(self, tracer: Tracer, off: ColdRound,
                  on: ColdRound) -> None:
        """Save, open and first pass per backend × codec."""
        def ms(series: dict) -> float:
            return sum(series.values()) * 1e3

        self.put("save_ms", ms(off.save), len(off.save))
        self.put("open_ms", ms(off.load), len(off.load))
        self.put("first_pass_ms",
                 sum(map(sum, off.first_pass.values())) * 1e3,
                 sum(map(len, off.first_pass.values())))
        for backend in {combo[0] for combo in off.save}:
            self.put(f"backend.{backend}.open_ms", sum(
                seconds for combo, seconds in off.load.items()
                if combo[0] == backend) * 1e3, 2)
            self.put(f"backend.{backend}.save_ms", sum(
                seconds for combo, seconds in off.save.items()
                if combo[0] == backend) * 1e3, 2)
        for metric, span_name in (
                ("index.catalog.save_ms", "index.catalog.save"),
                ("index.catalog.load_ms", "index.catalog.load"),
                ("index.tables.load_ms", "index.tables.load"),
                ("backend.read_ms", "backend.read"),
                ("backend.write_ms", "backend.write"),
                ("backend.compression.decompress_ms",
                 "backend.compression.decompress"),
                ("backend.compression.compress_ms",
                 "backend.compression.compress")):
            named = tracer.named(span_name)
            self.put(metric, sum(span.seconds for span in named) * 1e3,
                     len(named))
        self.put("backend.read_bytes", tracer.counts["backend.read_bytes"])
        self.put("backend.write_bytes", tracer.counts["backend.write_bytes"])
        flat = sum(size for combo, size in on.bytes_on_disk.items()
                   if combo[1] == "none")
        packed = sum(size for combo, size in on.bytes_on_disk.items()
                     if combo[1] != "none")
        self.put("backend.compression.ratio", packed / flat if flat else 0.0)
        # Decode work is judged on the first passes alone: only they run
        # against fresh BlockSequences with an empty decode memo.
        self.blocks(tracer, [span for lo, hi in on.first_pass_marks
                              for span in tracer.spans[lo:hi]])

    def method_grid(self, grid: GridPass, cycle: AdvisorCycle) -> None:
        """Figures 4–6 in seconds, cost-model agreement, the advisor."""
        def total(method: str) -> float:
            return sum(seconds for (_cell, m), seconds
                       in grid.seconds.items() if m == method) * 1e3

        cells = _cells(grid)
        for method in FORCED_METHODS:
            self.put(f"retrieval.{method}.eval_ms", total(method), len(cells))
        self.put("grid_eval_ms", sum(total(m) for m in FORCED_METHODS),
                 len(cells) * len(FORCED_METHODS))
        self.put("auto_eval_ms", total("auto"), len(cells))
        fastest = sum(min(grid.seconds[(cell, method)]
                          for method in FORCED_METHODS) for cell in cells)
        self.put("retrieval.auto_regret_pct",
                 (total("auto") / 1e3 - fastest) / fastest * 100.0,
                 len(cells))
        forced = [key for key in grid.seconds if key[1] != "auto"]
        self.put("storage.cost.rank_rho", stats.spearman(
            [grid.cost[key] for key in forced],
            [grid.seconds[key] for key in forced]), len(forced))
        agree = sum(_ranked(grid.cost, cell)[0]
                    == _ranked(grid.seconds, cell)[0] for cell in cells)
        self.put("storage.cost.who_wins_agreement", agree / len(cells),
                 len(cells))
        self.put("advisor_cycle_ms", cycle.seconds * 1e3)
        self.put("selfmanage.measure_ms", cycle.measure * 1e3)
        self.put("selfmanage.recommend_greedy_us", cycle.greedy * 1e6)
        self.put("selfmanage.recommend_ilp_us", cycle.ilp * 1e6)
        self.put("selfmanage.apply_ms", cycle.apply * 1e3)
        self.put("selfmanage.plan_gain", cycle.plan_gain)
        self.put("selfmanage.plan_bytes", cycle.plan_bytes)
