"""BuildPlanner/BuildPlan: dedup, cover merging, ordering, chunking."""

import pytest

from repro.build import BuildPlanner, BuildTarget
from repro.errors import RetrievalError


class TestBuildTarget:
    def test_invalid_kind_rejected(self):
        with pytest.raises(RetrievalError):
            BuildTarget(kind="postings", term="xml")

    def test_cover_excluded_from_equality(self):
        a = BuildTarget("rpl", "xml", cover=frozenset({1}))
        b = BuildTarget("rpl", "xml", cover=frozenset({2}))
        assert a == b
        assert hash(a) == hash(b)

    def test_scope_participates_in_equality(self):
        a = BuildTarget("rpl", "xml", scope=frozenset({1}))
        b = BuildTarget("rpl", "xml", scope=frozenset({2}))
        assert a != b

    def test_describe(self):
        assert "ALL" in BuildTarget("rpl", "xml").describe()
        assert "2 sids" in BuildTarget("erpl", "xml",
                                       scope=frozenset({1, 2})).describe()


class TestBuildPlanner:
    def test_duplicate_requests_collapse(self):
        planner = BuildPlanner()
        planner.add("rpl", "xml")
        planner.add("rpl", "xml")
        planner.add("erpl", "xml")
        assert len(planner) == 2

    def test_first_request_order_preserved(self):
        planner = BuildPlanner()
        planner.add("rpl", "zebra")
        planner.add("rpl", "alpha")
        planner.add("rpl", "zebra")  # dup: must not move to the back
        plan = planner.plan()
        assert [t.term for t in plan] == ["zebra", "alpha"]

    def test_cover_sets_union_on_duplicate(self):
        planner = BuildPlanner()
        planner.add("rpl", "xml", cover={1, 2})
        planner.add("rpl", "xml", cover={3})
        (target,) = planner.plan()
        assert target.cover == frozenset({1, 2, 3})

    def test_none_cover_absorbs(self):
        planner = BuildPlanner()
        planner.add("rpl", "xml", cover={1})
        planner.add("rpl", "xml", cover=None)
        (target,) = planner.plan()
        assert target.cover is None

    def test_add_missing_handles_engine_and_shard_tuples(self):
        planner = BuildPlanner()
        planner.add_missing([("rpl", "xml", frozenset({1, 2})),
                             ("erpl", "db", frozenset({3}), 0)])
        plan = planner.plan()
        assert len(plan) == 2
        assert all(t.scope is None for t in plan)
        assert plan.targets[0].cover == frozenset({1, 2})
        assert plan.targets[1].cover == frozenset({3})

    def test_plan_terms_and_sid_sets(self):
        planner = BuildPlanner()
        planner.add("rpl", "xml", scope={1})
        planner.add("erpl", "xml", scope={1})
        planner.add("rpl", "db")
        plan = planner.plan()
        assert plan.terms == ("xml", "db")
        assert plan.sid_sets() == (frozenset({1}), None)
