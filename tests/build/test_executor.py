"""Executing a build plan: one shared ERA pass, install order, report."""

from repro.build import BuildPlanner, BuildReport
from tests.build.test_batch import build_engine


def make_plan(engine, terms=("xml", "retrieval", "database", "systems",
                             "models", "data")):
    planner = BuildPlanner()
    for term in terms:
        planner.add("rpl", term)
        planner.add("erpl", term)
    return planner.plan()


class TestBuildImages:
    def test_empty_plan_is_noop(self):
        engine = build_engine()
        report, installed = engine.build_plan(BuildPlanner().plan())
        assert (installed, report.collection_scans, report.built) == ([], 0, 0)
        assert list(engine.catalog.segments()) == []

    def test_serial_single_scan(self):
        engine = build_engine()
        plan = make_plan(engine)
        report, installed = engine.build_plan(plan)
        assert report.collection_scans == 1
        assert [(segment.kind, segment.term) for segment in installed] == \
            [(target.kind, target.term) for target in plan]


class TestEngineParallelBuild:
    def test_warm_segments_returns_report(self):
        engine = build_engine()
        report = engine.warm_segments([("rpl", "xml"), ("erpl", "xml")])
        assert report.built == 2
        assert report.collection_scans == 1


class TestBuildReport:
    def test_merge_accumulates(self):
        a = BuildReport(requested=2, built=2, entries=10, bytes_built=100,
                        collection_scans=1, segments=["a"])
        b = BuildReport(requested=3, built=1, reused=2, entries=5,
                        bytes_built=50, collection_scans=2,
                        segments=["b"])
        a.merge(b)
        assert a.requested == 5
        assert a.built == 3
        assert a.reused == 2
        assert a.entries == 15
        assert a.bytes_built == 150
        assert a.collection_scans == 3
        assert a.segments == ["a", "b"]
