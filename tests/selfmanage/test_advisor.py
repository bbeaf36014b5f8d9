"""End-to-end tests for measurement and the index advisor.

There is one advisor for every engine topology.  ``TestAdvisor`` and
``TestAutotune`` run on the monolith and are inherited by the
``...OnShards`` classes, which re-run them on a 1 × 1 and a 2 × 2
``ShardedEngine``; the 2 × 1 row lives in
``tests/shard/test_shard_advisor.py``.
"""

from dataclasses import replace

import pytest

from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.errors import OptimizationError
from repro.retrieval import TrexEngine
from repro.selfmanage import (IndexAdvisor, SelectionPlan, Workload,
                              measure_query, WorkloadQuery)
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

from ..replica.conftest import assert_byte_identical


def _collection():
    return SyntheticIEEECorpus(num_docs=8, seed=21).build()


@pytest.fixture(scope="module")
def engine():
    collection = _collection()
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    return TrexEngine(collection, summary)


@pytest.fixture(scope="module", params=[(1, 1), (2, 2)], ids=["1x1", "2x2"])
def sharded_engine(request):
    shards, replicas = request.param
    return ShardedEngine(_collection(), shards, replicas=replicas,
                         alias=AliasMapping.inex_ieee())


@pytest.fixture(scope="module")
def workload():
    return Workload.uniform([
        ("q-ret", "//article//sec[about(., introduction information retrieval)]", 10),
        ("q-code", "//sec[about(., code signing verification)]", 10),
        ("q-onto", "//article[about(., ontologies)]", 5),
    ])


class TestMeasurement:
    def test_measures_all_methods(self, engine, workload):
        costs = measure_query(engine, workload[0])
        assert costs.t_era > 0
        assert costs.t_merge > 0
        assert costs.t_ta > 0
        assert costs.s_rpl > 0
        assert costs.s_erpl > 0

    def test_era_is_slowest_on_frequent_terms(self, engine, workload):
        costs = measure_query(engine, workload[0])
        assert costs.t_era > costs.t_merge

    def test_deltas_non_negative(self, engine, workload):
        costs = measure_query(engine, workload[0])
        assert costs.delta_merge >= 0
        assert costs.delta_ta >= 0

    def test_temporary_segments_dropped(self, engine, workload):
        before = engine.catalog.total_bytes
        measure_query(engine, workload[1])
        assert engine.catalog.total_bytes == before

    def test_temporary_segments_dropped_when_an_evaluation_raises(
            self, engine, workload, monkeypatch):
        calls = []
        evaluate = engine.evaluate

        def failing(*args, **kwargs):
            calls.append(kwargs.get("method"))
            if len(calls) == 3:
                raise RuntimeError("third evaluation fails")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(engine, "evaluate", failing)
        before = [s.segment_id for s in engine.catalog.segments()]
        with pytest.raises(RuntimeError, match="third evaluation"):
            measure_query(engine, workload[1])
        assert calls == ["era", "merge", "ta"]
        assert [s.segment_id for s in engine.catalog.segments()] == before


class TestAdvisor:
    def test_measure_caches(self, engine, workload):
        advisor = IndexAdvisor(engine)
        first = advisor.measure(workload)
        second = advisor.measure(workload)
        assert first is second

    def test_recommend_unknown_method(self, engine, workload):
        with pytest.raises(OptimizationError):
            IndexAdvisor(engine).recommend(workload, 1000, method="magic")

    def test_recommend_within_budget(self, engine, workload):
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, disk_budget=5000, method="greedy")
        assert plan.total_size <= 5000

    def test_ilp_at_least_as_good_as_greedy(self, engine, workload):
        advisor = IndexAdvisor(engine)
        for budget in (2000, 10000, 10**7):
            greedy = advisor.recommend(workload, budget, method="greedy")
            ilp = advisor.recommend(workload, budget, method="ilp")
            assert ilp.total_gain >= greedy.total_gain - 1e-9

    def test_apply_materializes_segments(self, engine, workload):
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, disk_budget=10**7, method="ilp")
        assert plan.choices  # big budget: something is worth storing
        applied = advisor.apply(workload, plan)
        assert applied.segments
        assert applied.total_bytes > 0
        for choice in plan.choices:
            assert applied.methods[choice.query_id] in ("merge", "ta", "wand")

    def test_applied_plan_reduces_cost_vs_era(self, engine, workload):
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, disk_budget=10**7, method="ilp")
        applied = advisor.apply(workload, plan)
        achieved = advisor.achieved_cost(workload, applied)
        baseline = advisor.baseline_cost(workload)
        assert achieved < baseline

    def test_expected_close_to_achieved(self, engine, workload):
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, disk_budget=10**7, method="greedy")
        applied = advisor.apply(workload, plan)
        expected = advisor.expected_cost(workload, plan)
        achieved = advisor.achieved_cost(workload, applied)
        assert achieved == pytest.approx(expected, rel=0.35)

    def test_zero_budget_plan_is_all_era(self, engine, workload):
        advisor = IndexAdvisor(engine)
        plan = advisor.recommend(workload, disk_budget=0, method="greedy")
        assert plan.choices == []
        assert advisor.expected_cost(workload, plan) == pytest.approx(
            advisor.baseline_cost(workload))


class TestAutotune:
    def test_autotune_applies_plan(self, engine, workload):
        advisor = IndexAdvisor(engine)
        applied = advisor.autotune(workload, disk_budget=10**7, method="ilp")
        assert applied.segments
        assert advisor.achieved_cost(workload, applied) < advisor.baseline_cost(workload)

    def test_invalidate_measurements(self, engine, workload):
        advisor = IndexAdvisor(engine)
        first = advisor.measure(workload)
        advisor.invalidate_measurements()
        second = advisor.measure(workload)
        assert first is not second


class TestAdvisorOnShards(TestAdvisor):
    @pytest.fixture()
    def engine(self, sharded_engine):
        return sharded_engine

    def test_zero_budget_plan_is_all_era(self, engine, workload):
        # Zero-size options (a term absent on a shard) remain free to
        # pick, but no bytes may be spent.
        plan = IndexAdvisor(engine).recommend(workload, disk_budget=0)
        assert plan.total_size == 0


class TestAutotuneOnShards(TestAutotune):
    @pytest.fixture()
    def engine(self, sharded_engine):
        return sharded_engine


class TestTopology:
    def test_monolith_ids_stay_bare(self, engine, workload):
        advisor = IndexAdvisor(engine)
        assert set(advisor.measure(workload)) == {"q-ret", "q-code", "q-onto"}
        applied = advisor.autotune(workload, disk_budget=10**7)
        assert set(applied.methods) == {"q-ret", "q-code", "q-onto"}
        assert set(applied.budget_split) == {0}
        assert applied.budget_split[0] == applied.total_bytes

    def test_ids_carry_the_shard_only_when_there_is_a_choice(
            self, sharded_engine, workload):
        costs = IndexAdvisor(sharded_engine).measure(workload)
        if sharded_engine.num_shards == 1:
            assert set(costs) == {"q-ret", "q-code", "q-onto"}
        else:
            assert set(costs) == {
                f"s{shard}:{query_id}"
                for shard in range(sharded_engine.num_shards)
                for query_id in ("q-ret", "q-code", "q-onto")}

    def test_followers_receive_what_the_leader_builds(self, workload):
        """Regression: the sharded advisor materialized on leaders only,
        so with ``auto_materialize`` off three of four round-robin reads
        of a 2 × 2 engine raised ``MissingIndexError``."""
        engine = ShardedEngine(_collection(), 2, replicas=2,
                               alias=AliasMapping.inex_ieee())
        applied = IndexAdvisor(engine).autotune(workload, disk_budget=10**7)
        assert applied.segments
        for shard in engine.shards:
            assert_byte_identical(shard.group)
        engine.auto_materialize = False
        for _ in range(4):  # the round robin visits every replica
            for query in workload:
                engine.evaluate(query.nexi, k=query.k, method="auto")

    def test_apply_honours_a_plans_zlib_choices(self, sharded_engine,
                                                workload):
        advisor = IndexAdvisor(sharded_engine)
        plan = advisor.recommend(workload, disk_budget=10**7)
        plan = SelectionPlan([replace(choice, compression="zlib")
                              for choice in plan.choices])
        applied = advisor.apply(workload, plan)
        assert applied.segments
        assert {segment.compression for segment in applied.segments} == {"zlib"}
        for shard in sharded_engine.shards:
            assert_byte_identical(shard.group)
