"""The advisor on a 2-shard engine: one knapsack over per-shard options.

This is the 2 × 1 row of the topology matrix; the monolith, 1 × 1 and
2 × 2 rows run in ``tests/selfmanage/test_advisor.py``.
"""

import pytest

from repro.errors import OptimizationError
from repro.selfmanage import IndexAdvisor, Workload, WorkloadQuery
from repro.shard import ShardedEngine


@pytest.fixture()
def engine(ieee_collection, ieee_alias):
    return ShardedEngine(ieee_collection, 2, alias=ieee_alias)


@pytest.fixture()
def workload():
    return Workload([
        WorkloadQuery("q1", "//sec[about(., xml)]", 5, 0.6),
        WorkloadQuery("q2", "//article[about(., database systems)]", 10, 0.3),
        WorkloadQuery("q3", "//sec[about(., query evaluation)]", 10, 0.1),
    ], normalize=True)


class TestMeasurement:
    def test_measures_every_shard_query_pair(self, engine, workload):
        advisor = IndexAdvisor(engine)
        costs = advisor.measure(workload)
        assert len(costs) == engine.num_shards * len(workload)
        assert set(costs) == {f"s{shard}:{query_id}"
                              for shard in range(engine.num_shards)
                              for query_id in ("q1", "q2", "q3")}
        for tagged, row in costs.items():
            assert row.query_id == tagged

    def test_measurement_is_cached_until_invalidated(self, engine, workload):
        advisor = IndexAdvisor(engine)
        first = advisor.measure(workload)
        assert advisor.measure(workload) is first
        advisor.invalidate_measurements()
        assert advisor.measure(workload) is not first


class TestSelection:
    def test_plan_respects_budget(self, engine, workload):
        advisor = IndexAdvisor(engine)
        budget = 50_000
        plan = advisor.recommend(workload, budget)
        assert plan.choices  # something is worth storing
        assert sum(choice.size for choice in plan.choices) <= budget

    def test_expected_cost_beats_baseline(self, engine, workload):
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, 200_000)
        assert advisor.expected_cost(workload, plan) <= \
            advisor.baseline_cost(workload)

    def test_zero_budget_stores_zero_bytes(self, engine, workload):
        # Zero-size options (a term absent on a shard) remain free to
        # pick, but no bytes may be spent.
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, 0)
        assert sum(choice.size for choice in plan.choices) == 0

    def test_unknown_selector_rejected(self, engine, workload):
        advisor = IndexAdvisor(engine)
        with pytest.raises(OptimizationError):
            advisor.recommend(workload, 1000, method="simulated-annealing")


class TestApply:
    def test_apply_materializes_on_owning_shards(self, engine, workload):
        advisor = IndexAdvisor(engine)
        applied = advisor.autotune(workload, 200_000)
        assert applied.segments
        stored = {(shard.index, segment.segment_id)
                  for shard in engine.shards
                  for segment in shard.engine.catalog.segments()}
        for shard, choice, term, sids in advisor.targets(workload,
                                                         applied.plan):
            assert shard.engine.catalog.find_segment(
                choice.kind, term, sids) is not None
        assert len(stored) == len(applied.segments)
        assert applied.total_bytes == sum(applied.budget_split.values())
        assert applied.total_bytes > 0

    def test_budget_split_reports_actual_bytes(self, engine, workload):
        advisor = IndexAdvisor(engine)
        applied = advisor.autotune(workload, 200_000)
        for shard_index, spent in applied.budget_split.items():
            assert spent == engine.shards[shard_index].engine.catalog.total_bytes

    def test_describe_mentions_every_shard_spend(self, engine, workload):
        advisor = IndexAdvisor(engine)
        applied = advisor.autotune(workload, 200_000)
        text = "\n".join(applied.describe())
        for shard_index in applied.budget_split:
            assert f"shard {shard_index}" in text
