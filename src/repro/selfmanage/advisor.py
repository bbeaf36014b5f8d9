"""The self-managing index advisor: measure → select → apply.

Ties the pieces of §4 together.  Given an engine and a workload, the
advisor measures per-query method costs and index sizes, runs one of
the two selectors under a disk budget, materializes the chosen
query-scoped segments, and can then report the workload's expected and
actually-achieved weighted evaluation cost.

There is one advisor for every engine topology.  The engine is seen as
its list of shards (:func:`~repro.shard.shards_of`; a plain engine is
one unreplicated shard): each query is measured **on each shard's
leader** (a shard engine is a complete TrexEngine, so
:func:`~repro.selfmanage.measure.measure_query` applies verbatim), and
the union of the cost rows goes to the unmodified selector — the same
multiple-choice knapsack over ``N × |workload|`` option groups, so the
greedy selector's 2-approximation guarantee is preserved and one disk
budget splits across shards by measured per-shard gain (a shard whose
options dominate the gain-per-byte frontier receives more bytes).  With
more than one shard the rows are keyed ``s{shard}:{query_id}``; with
one shard the ids stay bare, so a monolith's plans read as they always
did.  Chosen segments are installed through the shard's replica group:
what the leader builds, its followers receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from ..backend import COMPRESSIONS, PROFILES
from ..build.planner import BuildTarget
from ..errors import OptimizationError
from ..index.catalog import IndexSegment
from ..retrieval.engine import TrexEngine, method_rule
from ..shard import Shard, ShardedEngine, shards_of
from .greedy import GreedyIndexSelector
from .ilp import IlpIndexSelector
from .measure import QueryCosts, measure_workload
from .selection import IndexChoice, SelectionPlan
from .workload import Workload, WorkloadQuery

__all__ = ["IndexAdvisor", "AppliedPlan"]


@dataclass
class AppliedPlan:
    """A selection plan after materialization."""

    plan: SelectionPlan
    segments: list[IndexSegment]
    #: (tagged) query_id -> method that the stored indexes support
    #: ('merge' for ERPL choices, 'ta' for RPL choices — the planner's
    #: :func:`~repro.retrieval.engine.method_rule`), or 'era' for
    #: unsupported queries.
    methods: dict[str, str]
    #: shard index -> bytes of the budget actually stored on that shard.
    budget_split: dict[int, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self.segments)

    def describe(self) -> list[str]:
        return self.plan.describe() + [
            f"  shard {index}: {self.budget_split[index]} B"
            for index in sorted(self.budget_split)]


class IndexAdvisor:
    """Self-manages redundant top-k indexes for a query workload."""

    _SELECTORS = {
        "greedy": GreedyIndexSelector,
        "ilp": IlpIndexSelector,
    }

    def __init__(self, engine: TrexEngine | ShardedEngine) -> None:
        self.engine = engine
        self.shards = shards_of(engine)
        self._costs_cache: dict[int, dict[str, QueryCosts]] = {}

    def _pairs(self, workload: Workload
               ) -> Iterator[tuple[Shard, WorkloadQuery, str]]:
        """Every ``(shard, query, cost-row id)`` — one knapsack option
        group each.  Ids carry the shard only when there is a choice."""
        tagged = len(self.shards) > 1
        for shard in self.shards:
            for query in workload:
                yield shard, query, (f"s{shard.index}:{query.query_id}"
                                     if tagged else query.query_id)

    # ------------------------------------------------------------------
    def measure(self, workload: Workload) -> dict[str, QueryCosts]:
        """Measure (and cache) per-(shard, query) costs for *workload*.

        Queries whose translation is empty on a shard still measure (at
        near-zero cost on every method) and simply yield no
        positive-gain options there.
        """
        key = id(workload)
        if key not in self._costs_cache:
            local = {shard.index: measure_workload(shard.engine, workload)
                     for shard in self.shards}
            self._costs_cache[key] = {
                tagged: replace(local[shard.index][query.query_id],
                                query_id=tagged)
                for shard, query, tagged in self._pairs(workload)}
        return self._costs_cache[key]

    def invalidate_measurements(self) -> None:
        """Drop cached measurements (call after the collection changes,
        e.g. :meth:`~repro.retrieval.engine.TrexEngine.add_document`)."""
        self._costs_cache.clear()

    def autotune(self, workload: Workload, disk_budget: int,
                 method: str = "greedy", *,
                 compression: bool = False) -> "AppliedPlan":
        """The full §4 cycle in one call: re-measure, select under the
        budget, and materialize the chosen segments."""
        self.invalidate_measurements()
        plan = self.recommend(workload, disk_budget, method=method,
                              compression=compression)
        return self.apply(workload, plan)

    def recommend(self, workload: Workload, disk_budget: int,
                  method: str = "greedy", *,
                  compression: bool = False) -> SelectionPlan:
        """Select which indexes to store under *disk_budget* bytes — one
        knapsack over every shard's per-query options.

        With *compression* on, every candidate index also competes in a
        zlib variant — smaller footprint, gain reduced by the
        per-cold-block decompress charge — so a tight budget can prefer
        storing more (compressed) indexes over fewer flat ones.
        """
        selector_cls = self._SELECTORS.get(method)
        if selector_cls is None:
            raise OptimizationError(
                f"unknown selection method {method!r}; choose from "
                f"{sorted(self._SELECTORS)}")
        costs = self.measure(workload)
        return selector_cls().select(costs, disk_budget,
                                     compression=compression)

    def targets(self, workload: Workload, plan: SelectionPlan
                ) -> list[tuple[Shard, IndexChoice, str, frozenset[int]]]:
        """``(shard, choice, term, sids)`` for every query-scoped
        segment *plan* wants stored, in the plan's choice order."""
        owners = {tagged: (shard, query)
                  for shard, query, tagged in self._pairs(workload)}
        wanted = []
        for choice in plan.choices:
            shard, query = owners[choice.query_id]
            for clause in shard.engine.translate(query.nexi).clauses:
                for term in clause.terms:
                    wanted.append((shard, choice, term,
                                   frozenset(clause.sids)))
        return wanted

    def apply(self, workload: Workload, plan: SelectionPlan) -> AppliedPlan:
        """Materialize the plan's query-scoped segments on their shards.

        Each segment is stored under its choice's codec — a zlib choice
        lands compressed even in an otherwise-flat catalog — and is
        installed through the shard's replica group, so followers hold
        what the leader builds."""
        applied = AppliedPlan(plan=plan, segments=[], methods={
            tagged: "era" for _shard, _query, tagged in self._pairs(workload)})
        # The entries of every wanted segment come from ONE shared
        # build per shard (unmetered: no cost model is passed; a
        # target two clauses share is built once, installed twice).
        wanted = [(shard, choice, BuildTarget(choice.kind, term, scope=sids))
                  for shard, choice, term, sids
                  in self.targets(workload, plan)]
        entries = {
            shard.index: shard.engine.compute_entries(
                {target for owner, _, target in wanted
                 if owner is shard}).entries
            for shard in self.shards}
        for shard, choice, target in wanted:
            segment = shard.group.install_entries(
                target.kind, target.term, entries[shard.index][target],
                scope=target.scope, compression=choice.compression)
            applied.segments.append(segment)
            applied.budget_split[shard.index] = (
                applied.budget_split.get(shard.index, 0) + segment.size_bytes)
        for choice in plan.choices:
            applied.methods[choice.query_id] = method_rule(
                have_rpl=choice.kind == "rpl",
                have_erpl=choice.kind == "erpl")
        return applied

    # ------------------------------------------------------------------
    def expected_cost(self, workload: Workload, plan: SelectionPlan) -> float:
        """Predicted weighted evaluation cost under *plan* (from
        measures): per shard, the chosen method's measured cost (ERA
        where nothing is stored), summed — the scatter-gather evaluation
        touches every shard."""
        costs = self.measure(workload)
        total = 0.0
        for _shard, query, tagged in self._pairs(workload):
            cost = costs[tagged]
            choice = plan.choice_for(tagged)
            if choice is None:
                total += query.frequency * cost.t_era
            elif choice.kind == "erpl":
                total += query.frequency * (
                    cost.t_merge_zlib if choice.compression == "zlib"
                    else cost.t_merge)
            else:
                total += query.frequency * (
                    cost.t_ta_zlib if choice.compression == "zlib"
                    else cost.t_ta)
        return total

    def achieved_cost(self, workload: Workload, applied: AppliedPlan) -> float:
        """Actually evaluate the workload, on every shard's leader, with
        the applied plan's methods."""
        total = 0.0
        for shard, query, tagged in self._pairs(workload):
            method = applied.methods[tagged]
            k = query.k if method == "ta" else None
            result = shard.engine.evaluate(query.nexi, k=k, method=method)
            total += query.frequency * result.stats.cost
        return total

    def baseline_cost(self, workload: Workload) -> float:
        """Weighted cost of answering everything with ERA (no indexes)."""
        costs = self.measure(workload)
        return sum(query.frequency * costs[tagged].t_era
                   for _shard, query, tagged in self._pairs(workload))

    # ------------------------------------------------------------------
    def backend_report(self, workload: Workload) -> dict[str, dict[str, dict[str, float]]]:
        """What storing every measured index costs per backend × codec.

        For each backend the build cost scales by the backend's write
        factor (sqlite row inserts are dearer than pager file writes,
        mmap serialization sits between) and the footprint switches
        between the flat and zlib measurements.  The advisor surfaces
        this so operators can see the t_build/size trade-off of
        ``--backend``/``--compress`` before committing to one.
        """
        costs = self.measure(workload)
        t_build = sum(cost.t_build for cost in costs.values())
        flat_bytes = sum(cost.s_rpl + cost.s_erpl for cost in costs.values())
        zlib_bytes = sum(cost.s_rpl_zlib + cost.s_erpl_zlib
                         for cost in costs.values())
        report: dict[str, dict[str, dict[str, float]]] = {}
        for backend, profile in PROFILES.items():
            report[backend] = {}
            for codec in COMPRESSIONS:
                size = flat_bytes if codec == "none" else zlib_bytes
                report[backend][codec] = {
                    "size_bytes": float(size),
                    "t_build": round(t_build * profile.write_factor, 2),
                }
        return report

    def recommend_compression(self, workload: Workload, *,
                              min_saving: float = 0.1) -> dict[str, str]:
        """Per-segment-kind codec recommendation from measured sizes.

        Recommends ``zlib`` for a kind when compressing shaves at least
        *min_saving* (fraction) off its measured bytes; otherwise
        ``none`` — the decompress charges are not worth marginal
        savings.
        """
        costs = self.measure(workload)
        totals = {
            "rpl": (sum(c.s_rpl for c in costs.values()),
                    sum(c.s_rpl_zlib for c in costs.values())),
            "erpl": (sum(c.s_erpl for c in costs.values()),
                     sum(c.s_erpl_zlib for c in costs.values())),
        }
        recommendation = {}
        for kind, (flat, compressed) in totals.items():
            saving = (flat - compressed) / flat if flat else 0.0
            recommendation[kind] = "zlib" if saving >= min_saving else "none"
        return recommendation
