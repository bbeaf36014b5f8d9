"""Measuring per-query costs and index sizes for the advisor.

Paper §4: "The actual time savings and disk space for typical queries
should be measured experimentally and assigned in the formulas."  This
module does that measurement: for each workload query it materializes
temporary query-scoped RPL and ERPL segments, runs the three methods
the stored indexes map to (ERA over the base indexes, Merge over an
ERPL, TA over an RPL), and records

* ``T_e``, ``T_m``, ``T_ta`` — simulated evaluation costs;
* ``T_build`` — the simulated cost of materializing the query's
  segments (the builder's ERA pass over the base indexes plus a tuple
  write per entry and a sort per segment; metered on a private cost
  model so the engine's serving-side accounting is untouched);
* ``Δm = max(T_e - T_m, 0)``, ``Δta = max(T_e - T_ta, 0)`` — savings;
* ``S_ERPL`` — bytes of the ERPL segments Merge needs;
* ``S_RPL`` — bytes of the RPL *prefixes* TA read before stopping
  (the paper: "only the part of the RPLs that is needed for computing
  the top-k elements must be stored").

The temporary segments are built through the engine's one builder —
every ``(kind, term, scope)`` the query needs comes out of one
``compute_entries`` call, with cross-clause duplicates collapsed by
the planner — and dropped afterwards, whether or not the evaluations
succeed; the advisor decides which to re-materialize.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..build.planner import BuildPlanner
from ..retrieval.engine import TrexEngine
from ..storage.cost import Charge, CostModel
from .workload import Workload, WorkloadQuery

__all__ = ["QueryCosts", "measure_query", "measure_workload"]


@dataclass(frozen=True)
class QueryCosts:
    """Measured inputs to the index-selection optimization."""

    query_id: str
    frequency: float
    t_era: float
    t_merge: float
    t_ta: float
    s_rpl: int
    s_erpl: int
    #: Simulated cost of materializing this query's segments in one
    #: batched pass — what the self-manager pays up front to unlock the
    #: per-query savings below.
    t_build: float = 0.0
    #: What the same segments occupy zlib-compressed, and what the
    #: methods cost when every cold block additionally pays
    #: BLOCK_DECOMPRESS — the compressed alternative the selector can
    #: trade against the flat one (smaller size, smaller gain).
    s_rpl_zlib: int = 0
    s_erpl_zlib: int = 0
    t_merge_zlib: float = 0.0
    t_ta_zlib: float = 0.0

    @property
    def delta_merge(self) -> float:
        """Paper: Δm(Q) = max(T_e - T_m, 0)."""
        return max(self.t_era - self.t_merge, 0.0)

    @property
    def delta_ta(self) -> float:
        """Paper: Δta(Q) = max(T_e - T_ta, 0)."""
        return max(self.t_era - self.t_ta, 0.0)

    @property
    def delta_merge_zlib(self) -> float:
        """Δm against a zlib-compressed ERPL (decompress charges in)."""
        return max(self.t_era - self.t_merge_zlib, 0.0)

    @property
    def delta_ta_zlib(self) -> float:
        """Δta against a zlib-compressed RPL (decompress charges in)."""
        return max(self.t_era - self.t_ta_zlib, 0.0)

    @property
    def weighted_delta_merge(self) -> float:
        return self.frequency * self.delta_merge

    @property
    def weighted_delta_ta(self) -> float:
        return self.frequency * self.delta_ta

    @property
    def weighted_delta_merge_zlib(self) -> float:
        return self.frequency * self.delta_merge_zlib

    @property
    def weighted_delta_ta_zlib(self) -> float:
        return self.frequency * self.delta_ta_zlib


def measure_query(engine: TrexEngine, query: WorkloadQuery) -> QueryCosts:
    """Measure one query's method costs and index sizes on *engine*."""
    translated = engine.translate(query.nexi)

    # Plan the temporary query-scoped segments: the planner collapses a
    # term requested by several clauses with the same sid set into one
    # build target.
    planner = BuildPlanner()
    for clause in translated.clauses:
        for term in clause.terms:
            planner.add("rpl", term, scope=clause.sids)
            planner.add("erpl", term, scope=clause.sids)
    plan = planner.plan()

    # One shared build for every target, metered privately so the
    # engine's own accounting never sees tuning work.
    build_model = CostModel()
    batch = engine.compute_entries(plan, cost_model=build_model)
    created = []
    rpl_segments = {}
    zlib_sizes: dict[int, int] = {}
    try:
        with engine.cost_model.muted():
            for target in plan:
                # Built flat regardless of the catalog's codec: the flat
                # run is the measurement baseline, the zlib alternative is
                # derived from it below.
                sequence = engine.catalog.build_sequence(
                    target.kind, batch.entries[target], compression="none")
                zlib_sizes[id(sequence)] = sequence.compressed_size_bytes("zlib")
                segment = engine.catalog.install_sequence(
                    target.kind, target.term, sequence, scope=target.scope)
                created.append(segment)
                if target.kind == "rpl":
                    rpl_segments[(target.term, target.scope)] = segment

        era_result = engine.evaluate(query.nexi, k=None, method="era")
        merge_result = engine.evaluate(query.nexi, k=None, method="merge")
        ta_result = engine.evaluate(query.nexi, k=query.k, method="ta")

        s_erpl = 0
        s_erpl_zlib = 0
        for segment in created:
            if segment.kind != "erpl":
                continue
            s_erpl += segment.size_bytes
            for run in engine.catalog.runs_for(segment):
                s_erpl_zlib += zlib_sizes.get(id(run), run.size_bytes)
        # RPL prefix actually read by TA, prorated from the depth counters.
        s_rpl = 0
        s_rpl_zlib = 0
        depths = ta_result.stats.list_depths
        for (term, _sids), segment in rpl_segments.items():
            if segment.entry_count == 0:
                continue
            depth = min(depths.get(term, segment.entry_count), segment.entry_count)
            fraction = depth / segment.entry_count
            s_rpl += round(segment.size_bytes * fraction)
            compressed = sum(zlib_sizes.get(id(run), run.size_bytes)
                            for run in engine.catalog.runs_for(segment))
            s_rpl_zlib += round(compressed * fraction)
    finally:
        # The temporaries must not outlive the measurement — a raising
        # evaluation would otherwise leave them counting against
        # ``catalog_bytes``.
        with engine.cost_model.muted():
            for segment in created:
                engine.catalog.drop_segment(segment.segment_id)

    # The compressed alternative pays one BLOCK_DECOMPRESS per cold
    # block on top of the flat run's cost — the block-read counters of
    # the measured runs tell exactly how many that is.
    t_merge = merge_result.stats.cost
    t_ta = ta_result.stats.cost
    return QueryCosts(
        query_id=query.query_id,
        frequency=query.frequency,
        t_era=era_result.stats.cost,
        t_merge=t_merge,
        t_ta=t_ta,
        s_rpl=s_rpl,
        s_erpl=s_erpl,
        t_build=build_model.total_cost,
        s_rpl_zlib=s_rpl_zlib,
        s_erpl_zlib=s_erpl_zlib,
        t_merge_zlib=t_merge + Charge.BLOCK_DECOMPRESS
        * merge_result.stats.blocks_read,
        t_ta_zlib=t_ta + Charge.BLOCK_DECOMPRESS
        * ta_result.stats.blocks_read,
    )


def measure_workload(engine: TrexEngine, workload: Workload) -> dict[str, QueryCosts]:
    """Measure every query of *workload*; returns query_id → costs."""
    return {query.query_id: measure_query(engine, query) for query in workload}
