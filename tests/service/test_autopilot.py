"""Tests for the online self-managing autopilot.

There is one cycle for every engine topology: ``TestCycle`` runs on the
monolith and ``TestCycleOnShards`` re-runs it on 1 × 1, 2 × 1 and 2 × 2
``ShardedEngine``s.
"""

import pytest

from repro.errors import TrexError
from repro.service import Autopilot, QueryService, ServiceConfig, WorkloadRecorder
from repro.shard import ShardedEngine

from ..replica.conftest import assert_byte_identical
from .conftest import DOCS, build_engine

QUERY = "//sec[about(., xml retrieval)]"
OTHER = "//sec[about(., storage)]"


class TestWorkloadRecorder:
    def test_empty_recorder_builds_nothing(self):
        assert WorkloadRecorder().build_workload() is None

    def test_counts_and_normalizes(self):
        recorder = WorkloadRecorder()
        for _ in range(3):
            recorder.record(QUERY, 5)
        recorder.record(OTHER, 10)
        workload = recorder.build_workload()
        assert len(workload) == 2
        by_nexi = {q.nexi: q for q in workload}
        assert by_nexi[QUERY].frequency == pytest.approx(0.75)
        assert by_nexi[OTHER].frequency == pytest.approx(0.25)

    def test_keeps_smallest_k(self):
        recorder = WorkloadRecorder()
        recorder.record(QUERY, 10)
        recorder.record(QUERY, 3)
        recorder.record(QUERY, 7)
        workload = recorder.build_workload()
        assert workload[0].k == 3

    def test_none_k_uses_default(self):
        recorder = WorkloadRecorder(default_k=12)
        recorder.record(QUERY, None)
        assert recorder.build_workload()[0].k == 12

    def test_top_bound_keeps_hottest(self):
        recorder = WorkloadRecorder()
        for index in range(6):
            nexi = f"//sec[about(., term{index})]"
            for _ in range(index + 1):
                recorder.record(nexi, 5)
        workload = recorder.build_workload(top=2)
        assert len(workload) == 2
        assert all("term" in q.nexi for q in workload)
        assert {q.nexi for q in workload} == {
            "//sec[about(., term5)]", "//sec[about(., term4)]"}

    def test_sketch_full_keeps_counting_tracked(self):
        recorder = WorkloadRecorder(max_distinct=1)
        recorder.record(QUERY, 5)
        recorder.record(OTHER, 5)  # dropped: sketch is full
        recorder.record(QUERY, 5)
        assert recorder.total_recorded == 3
        workload = recorder.build_workload()
        assert len(workload) == 1
        assert workload[0].nexi == QUERY

    def test_snapshot(self):
        recorder = WorkloadRecorder()
        recorder.record(QUERY, 5)
        assert recorder.snapshot() == {"total_recorded": 1,
                                       "distinct_queries": 1}


class TestCycle:
    def test_min_observations_gate(self, service):
        service.search(QUERY, k=2)  # one observation < min of 2
        assert service.autopilot.run_cycle() is None
        service.search(QUERY, k=2)
        assert service.autopilot.run_cycle() is not None

    def test_force_overrides_gate(self, service):
        service.search(QUERY, k=2)
        assert service.autopilot.run_cycle(force=True) is not None

    def test_cycle_materializes_and_flips_choose_method(self, service, engine):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        translated = engine.translate(QUERY)
        assert engine.choose_method(translated, 2) == "era"  # nothing on disk

        report = service.autopilot.run_cycle()
        assert report is not None
        assert report.materialized >= 1
        assert report.expected_cost <= report.baseline_cost
        # advisor-chosen segments now make a better method available
        assert engine.choose_method(translated, 2) != "era"
        served = service.search(QUERY, k=2, use_cache=False)
        assert served["method"] != "era"

    def test_second_cycle_skips_existing_segments(self, service):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        first = service.autopilot.run_cycle()
        second = service.autopilot.run_cycle()
        assert first.materialized >= 1
        assert second.materialized == 0
        assert second.skipped >= first.materialized

    def test_retires_segments_dropped_from_plan(self, service, engine):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        first = service.autopilot.run_cycle()
        assert first.materialized >= 1
        created_before = len(service.autopilot._created)

        # Shift the workload entirely to a different query; the hot set
        # the recorder reports changes, so the old segments get retired
        # once the plan stops choosing them.
        for _ in range(40):
            service.search(OTHER, k=2, use_cache=False)
        service.autopilot.top_queries = 1  # plan can only keep the new one
        second = service.autopilot.run_cycle()
        assert second.dropped == created_before
        assert all(key[1] == "storage"
                   for key in service.autopilot._created.values())

    def test_cycle_does_not_pollute_serving_cost_meters(self, service, engine):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        before = service.worker_costs.aggregate()["total_cost"]
        service.autopilot.run_cycle()
        assert engine.cost_model.total_cost == 0
        assert service.worker_costs.aggregate()["total_cost"] == before

    def test_start_requires_interval(self, service):
        with pytest.raises(TrexError):
            service.autopilot.start()  # fixture sets interval=None

    def test_snapshot_reports_last_cycle(self, service):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        service.autopilot.run_cycle()
        snap = service.autopilot.snapshot()
        assert snap["cycles"] == 1
        assert snap["last_error"] is None
        assert snap["last_report"]["materialized"] >= 1
        assert snap["created_segments"] >= 1
        assert snap["recorder"]["total_recorded"] == 4


class TestCycleOnShards(TestCycle):
    @pytest.fixture(params=[(1, 1), (2, 1), (2, 2)],
                    ids=["1x1", "2x1", "2x2"])
    def engine(self, request):
        shards, replicas = request.param
        return ShardedEngine.from_engine(build_engine(*DOCS), shards,
                                         replicas=replicas)

    def test_cycle_materializes_and_flips_choose_method(self, service, engine):
        # The coordinator leaves ERA only once *every* shard holds the
        # query's lists, and a shard with no gainful option stores
        # nothing — so the flip is asserted per shard.
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        translated = engine.translate(QUERY)
        assert engine.choose_method(translated, 2) == "era"
        report = service.autopilot.run_cycle()
        assert report.materialized >= 1
        assert report.expected_cost <= report.baseline_cost
        assert any(shard.engine.choose_method(local, 2) != "era"
                   for shard, local in zip(engine.shards,
                                           translated.per_shard))

    def test_segments_name_their_shard_only_when_there_is_a_choice(
            self, service, engine):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        report = service.autopilot.run_cycle()
        assert report.materialized >= 1
        assert all(segment.startswith("shard") == (engine.num_shards > 1)
                   for segment in report.segments)

    def test_followers_hold_what_the_cycle_installs_and_retires(
            self, service, engine):
        for _ in range(4):
            service.search(QUERY, k=2, use_cache=False)
        assert service.autopilot.run_cycle().materialized >= 1
        for shard in engine.shards:
            assert_byte_identical(shard.group)
        for _ in range(40):
            service.search(OTHER, k=2, use_cache=False)
        service.autopilot.top_queries = 1
        assert service.autopilot.run_cycle().dropped >= 1
        for shard in engine.shards:
            assert_byte_identical(shard.group)
        # every replica answers: nothing was installed on leaders only
        for _ in range(2 * len(engine.shards[0].group)):
            assert service.search(OTHER, k=2, use_cache=False)["total"] >= 1


class TestBackgroundThread:
    def test_periodic_cycles_run(self, engine):
        config = ServiceConfig(workers=2, autopilot_interval=0.05,
                               autopilot_min_observations=1)
        with QueryService(engine, config) as service:
            service.search(QUERY, k=2)
            deadline = 100
            for _ in range(deadline):
                if service.autopilot.cycles >= 1:
                    break
                service.autopilot._stop.wait(0.05)
            assert service.autopilot.cycles >= 1
        # close() stopped the thread
        assert service.autopilot._thread is None


class TestSelfManagementKeepsAutoAnswering:
    """The autopilot installs lists scoped to each clause's sids; a flat
    request reads the union of them.  ``auto`` has to ask what is
    missing *in the request's mode*, or installing an index turns a
    query ERA answered into a ``MissingIndexError``."""

    TWO_CLAUSES = "//a[about(., xml)]//sec[about(., xml retrieval)]"

    @pytest.mark.parametrize("shards", (1, 2))
    def test_flat_auto_survives_a_cycle(self, engine, shards):
        config = ServiceConfig(workers=2, autopilot_interval=None,
                               autopilot_min_observations=1, shards=shards,
                               shard_policy="range")
        with QueryService(engine, config) as svc:
            before = svc.search(self.TWO_CLAUSES, k=5, mode="flat",
                                use_cache=False)
            assert before["method"] == "era"
            report = svc.autopilot.run_cycle(force=True)
            assert report is not None and report.materialized >= 1
            for mode in ("flat", "nexi"):
                for k in (5, 50, None):
                    want = svc.search(self.TWO_CLAUSES, k=k, method="era",
                                      mode=mode, use_cache=False)
                    got = svc.search(self.TWO_CLAUSES, k=k, method="auto",
                                     mode=mode, use_cache=False)
                    assert got["hits"] == want["hits"], (mode, k)
            # The per-clause lists do serve the mode they were built for
            # (on the shards the plan chose), and not the flat union.
            locals_ = [(shard.engine, shard.engine.translate(self.TWO_CLAUSES))
                       for shard in svc.shards]
            assert any(local.choose_method(translated, 5) != "era"
                       for local, translated in locals_)
            assert all(local.choose_method(translated, 5, "flat") == "era"
                       for local, translated in locals_)
