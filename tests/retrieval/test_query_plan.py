"""The plan ``explain`` reports is the plan the run executes.

:meth:`~repro.retrieval.engine.TrexEngine.plan` makes every decision
about a request once; evaluation and sessions only read the
:class:`~repro.retrieval.engine.QueryPlan`.  This property holds them,
and the coordinator's ``explain`` (the one ``explain``; a monolith is
adopted as its one shard), to it.  Each plan built during a run is
captured by wrapping ``plan`` on the class, and:

* the run executes one plan per engine it touches (the monolith, or
  each shard's leader) for the request's mode, k, phrase rule and
  strategy — ``auto`` resolved to what ``explain``'s ``chosen_method``
  (each shard row's ``local_method``) names for that mode;
* the plan's tasks are the tasks ``explain`` shows for that mode (the
  nexi clauses, or the one flat task) on every shard;
* the answers are ERA's.

Queries are the seven paper queries and generated NEXI
(``tests/nexi/test_parser_properties.py``'s ``nexi_queries``); draws
cover both modes, k ∈ {1, 10, None}, ``require_phrases`` and every
method of ``METHODS``, on a 30-document engine and on two shards of the
same collection.  The catalog is drawn too: lists built on demand, or
an engine that may not build (``auto_materialize`` off, the serving
configuration) holding nothing, lists scoped to each clause, to the
flat union, or universal RPLs only — so ``auto`` plans every strategy
the rule can name, and differently per mode where per-clause lists
serve nexi mode and not flat.

``REPRO_PLAN_EXAMPLES`` raises the example count (CI uses 300).
"""

import os
from contextlib import contextmanager
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus)
from repro.retrieval import METHODS, TrexEngine
from repro.retrieval.engine import MODES
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardedEngine, shards_of
from repro.summary import IncomingSummary

from ..nexi.test_parser_properties import nexi_queries

EXAMPLES = int(os.environ.get("REPRO_PLAN_EXAMPLES", "30"))
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}
KINDS = ("monolith", "sharded")
#: Catalog state → the (kinds, scope) materialized for the query, on an
#: engine that may not build; ``on-demand`` builds what a run reads.
STATES = {"on-demand": None, "empty": None,
          "query-scoped": (("rpl", "erpl"), "query"),
          "flat-scoped": (("rpl", "erpl"), "flat"),
          "rpl-only": (("rpl",), "universal")}


@cache
def engine_for(collection: str, kind: str, on_demand: bool):
    """30 documents, blocks of four rows."""
    corpus_class, alias = CORPORA[collection]
    built = corpus_class(num_docs=30, seed=42).build()
    if kind == "sharded":
        return ShardedEngine(built, 2, policy="range", alias=alias(),
                             block_size=4)
    return TrexEngine(built, IncomingSummary(built, alias=alias()),
                      block_size=4)


def engine_in(collection: str, kind: str, state: str, nexi: str):
    engine = engine_for(collection, kind, state == "on-demand")
    if state == "on-demand":
        return engine
    for shard in shards_of(engine):
        catalog = shard.engine.catalog
        for segment in list(catalog.segments()):
            catalog.drop_segment(segment.segment_id)
        if STATES[state] is not None:
            kinds, scope = STATES[state]
            shard.engine.materialize_for_query(nexi, kinds, scope=scope)
    engine.auto_materialize = False
    return engine


@contextmanager
def captured_plans():
    """Every :class:`QueryPlan` built inside the block, in order."""
    plans = []
    original = TrexEngine.plan

    def plan(self, *args, **kwargs):
        built = original(self, *args, **kwargs)
        plans.append(built)
        return built

    TrexEngine.plan = plan
    try:
        yield plans
    finally:
        TrexEngine.plan = original


def task_view(task: dict) -> tuple:
    """What ``explain`` shows of a task, as a plan's clause would say it."""
    return (task["pattern"], task["role"], tuple(task["sids"]),
            tuple(task["terms"]))


def plan_view(plan) -> list[tuple]:
    return [(str(task.clause.pattern),
             "target" if task.clause.is_target else "support",
             tuple(sorted(task.clause.sids)), task.clause.terms)
            for task in plan.tasks]


def reported_tasks(report: dict, mode: str) -> list[tuple]:
    tasks = report["clauses"] if mode == "nexi" else [report["flat"]]
    return [task_view(task) for task in tasks]


def answers(result) -> list[tuple]:
    return [(hit.docid, hit.end_pos, round(hit.score, 9))
            for hit in result.hits]


def check_request(collection, nexi, kind, state, mode, k, method,
                  require_phrases):
    engine = engine_in(collection, kind, state, nexi)
    cell = (collection, nexi, kind, state, mode, k, method,
            require_phrases)
    report = ShardedEngine.from_engine(engine, 1).explain(nexi)
    with captured_plans() as executed:
        result = engine.evaluate(nexi, k=k, method=method, mode=mode,
                                 require_phrases=require_phrases)
    era = engine.evaluate(nexi, k=k, method="era", mode=mode,
                          require_phrases=require_phrases)
    assert answers(result) == answers(era), cell

    chosen = report["chosen_method"][mode]
    reports = report["shards"]
    assert len(executed) == len(reports), cell
    for row, plan in zip(reports, executed):
        assert row["local_method"][mode] == chosen, cell
        assert (plan.mode, plan.k, plan.require_phrases) == (
            mode, k, require_phrases), cell
        assert plan.method == (chosen if method == "auto" else method), cell
        assert plan_view(plan) == reported_tasks(row, mode), cell
    assert result.stats.method == executed[0].method, cell


PAPER = [(query.collection, query.nexi)
         for _qid, query in sorted(PAPER_QUERIES.items())]
QUERIES = st.one_of(st.sampled_from(PAPER),
                    nexi_queries().map(lambda nexi: ("ieee", nexi)))


def paper_examples(test):
    for collection, nexi in PAPER:
        for kind in KINDS:
            test = example(query=(collection, nexi), kind=kind,
                           state="query-scoped", mode="flat", k=10,
                           method="auto", require_phrases=False)(test)
    return test


@given(query=QUERIES, kind=st.sampled_from(KINDS),
       state=st.sampled_from(sorted(STATES)),
       mode=st.sampled_from(MODES), k=st.sampled_from((1, 10, None)),
       method=st.sampled_from(METHODS), require_phrases=st.booleans())
@paper_examples
@settings(max_examples=EXAMPLES, deadline=None)
def test_explain_reports_the_plan_the_run_executes(query, kind, state,
                                                   mode, k, method,
                                                   require_phrases):
    if state != "on-demand" and method != "auto":
        # Nothing may be built: a forced strategy may lack its lists.
        method = "era"
    collection, nexi = query
    check_request(collection, nexi, kind, state, mode, k, method,
                  require_phrases)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nexi", ["//article", "//article//sec"])
def test_a_request_that_reads_no_list_is_eras(nexi, mode, kind):
    """Without an about clause a request reads no list, so ``auto`` is
    ERA on an empty catalog that may not build: the result, ``explain``
    and the service's ``search.method.*`` counter all say so, and the
    answers are ERA's."""
    check_request("ieee", nexi, kind, "empty", mode, 10, "auto", False)
    engine = engine_in("ieee", kind, "empty", nexi)
    explained = ShardedEngine.from_engine(engine, 1).explain(nexi)
    assert explained["chosen_method"][mode] == "era"
    assert engine.evaluate(nexi, k=10, mode=mode).stats.method == "era"
    config = ServiceConfig(workers=1, cache_capacity=0)
    with QueryService(engine, config) as service:
        payload = service.search(nexi, 10, mode=mode)
        counters = service.telemetry.snapshot()["counters"]
    assert payload["method"] == "era"
    assert {name: value for name, value in counters.items()
            if name.startswith("search.method.")} == {"search.method.era": 1}
