"""``method='auto'`` never needs an index.

Whatever the catalog holds — nothing, lists scoped to each clause, lists
scoped to the flat union, universal lists, one kind only — and whichever
mode and k the request names, ``auto`` on an engine that may not build
(``auto_materialize=False``, the serving configuration) picks a strategy
it can run and returns ERA's answers.  ``choose_method`` therefore has
to test availability *in the request's mode*: flat evaluation reads
lists covering the union of the clause sids, which per-clause lists of a
multi-clause query do not (a mode-blind ``choose_method`` raises
``MissingIndexError`` on exactly those cells).
"""

import functools

import pytest

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus)
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine, shards_of
from repro.summary import IncomingSummary

#: Catalog state → (kinds, scope) handed to ``materialize_for_query``.
STATES = {
    "empty": None,
    "query-scoped": (("rpl", "erpl"), "query"),
    "flat-scoped": (("rpl", "erpl"), "flat"),
    "universal": (("rpl", "erpl"), "universal"),
    "rpl-only": (("rpl",), "universal"),
    "erpl-only": (("erpl",), "universal"),
}
MODES = ("nexi", "flat")
KS = (1, 50, None)
CORPORA = {
    "ieee": (SyntheticIEEECorpus, 12, AliasMapping.inex_ieee),
    "ieee30": (SyntheticIEEECorpus, 30, AliasMapping.inex_ieee),
    "wiki": (SyntheticWikipediaCorpus, 16, AliasMapping.inex_wikipedia),
}


@functools.cache
def _engine(kind, collection_name):
    """One engine per (kind, collection), built on first use; each cell
    resets its catalog."""
    corpus, docs, alias = CORPORA[collection_name]
    collection = corpus(num_docs=docs, seed=42).build()
    if kind == "sharded":
        return ShardedEngine(collection, 2, policy="range", alias=alias())
    return TrexEngine(collection, IncomingSummary(collection, alias=alias()))


def _set_catalog(engine, nexi, state):
    engine.auto_materialize = True
    for shard in shards_of(engine):
        catalog = shard.engine.catalog
        for segment in list(catalog.segments()):
            catalog.drop_segment(segment.segment_id)
        if STATES[state] is not None:
            kinds, scope = STATES[state]
            shard.engine.materialize_for_query(nexi, kinds, scope=scope)
    engine.auto_materialize = False


def _answers(result):
    return [(hit.docid, hit.end_pos, hit.sid, round(hit.score, 9))
            for hit in result.hits]


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("qid", sorted(PAPER_QUERIES))
@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_auto_answers_like_era_without_building(kind, qid, state):
    query = PAPER_QUERIES[qid]
    engine = _engine(kind, query.collection)
    _set_catalog(engine, query.nexi, state)
    segment_ids = [sorted(s.segment_id for s in shard.engine.catalog.segments())
                   for shard in shards_of(engine)]
    for mode in MODES:
        for k in KS:
            cell = f"Q{qid} {kind} {state} mode={mode} k={k}"
            era = engine.evaluate(query.nexi, k=k, method="era", mode=mode)
            auto = engine.evaluate(query.nexi, k=k, method="auto", mode=mode)
            assert _answers(auto) == _answers(era), cell
            if state == "empty":
                assert auto.stats.method == "era", cell
    assert segment_ids == [
        sorted(s.segment_id for s in shard.engine.catalog.segments())
        for shard in shards_of(engine)]  # nothing was built on the way


def test_flat_request_is_not_answered_from_per_clause_lists():
    """The shrunk regression: Q202's clauses sit on different sids, so
    lists scoped per clause serve nexi mode and cannot serve flat."""
    query = PAPER_QUERIES[202]
    engine = _engine("monolith", "ieee")
    _set_catalog(engine, query.nexi, "query-scoped")
    translated = engine.translate(query.nexi)
    assert engine.choose_method(translated) == "merge"
    assert engine.choose_method(translated, "flat") == "era"
    assert engine.missing_segments(translated, ("rpl",), mode="flat")


#: Queries nexi mode must run exhaustively, with their collections: two
#: clauses (Q202, Q233), or one clause whose answer is not its top k —
#: descendants vote for their ancestors, or a comparison filters the
#: clause's hits after the cut (``clause_k``'s single-task rule).
EXHAUSTIVE = {
    "202": (PAPER_QUERIES[202].nexi, PAPER_QUERIES[202].collection),
    "233": (PAPER_QUERIES[233].nexi, PAPER_QUERIES[233].collection),
    "votes": ("//article[about(.//p, retrieval)]", "ieee"),
    "compared": ('//sec[about(., retrieval) and .//st = "introduction"]',
                 "ieee"),
}


@pytest.mark.parametrize("state, expected", [("universal", "merge"),
                                             ("rpl-only", "ta"),
                                             ("empty", "era")])
@pytest.mark.parametrize("query", EXHAUSTIVE)
@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_multi_clause_nexi_is_chosen_at_the_clause_k(kind, query, state,
                                                     expected):
    """Nexi mode runs the clauses of these queries exhaustively, and the
    rule reads no k: whatever the request's k, never TA with a heap that
    cannot fill nor WAND with θ = −∞."""
    nexi, collection = EXHAUSTIVE[query]
    engine = _engine(kind, collection)
    _set_catalog(engine, nexi, state)
    translated = engine.translate(nexi)
    assert engine.choose_method(translated) == expected
    explained = ShardedEngine.from_engine(engine, 1).explain(nexi)
    assert explained["chosen_method"]["nexi"] == expected
    for k in (1, 10, 100):
        auto = engine.evaluate(nexi, k=k, method="auto")
        assert auto.stats.method == expected
        era = engine.evaluate(nexi, k=k, method="era")
        assert _answers(auto) == _answers(era)


#: What ``auto`` resolves to per catalog state, in either mode: an ERPL
#: is Merge's, an RPL is TA's, and with neither ERA reads the base
#: indexes.  ``forced`` is what forced ``ta``, ``merge`` and ``wand``
#: runs at k=10 leave behind: both kinds, scoped to the query.
RULE = {"universal": "merge", "erpl-only": "merge", "rpl-only": "ta",
        "empty": "era", "forced": "merge"}

#: The table's rows: (nexi, collection, require_phrases, state).  The
#: last row enforces phrases on a one-clause query, so its clause runs
#: to the end whatever the request's k; ``auto`` used to choose for the
#: request's k there, and picked TA at 1.7x Merge's cost.
RULE_TABLE = [
    *((PAPER_QUERIES[qid].nexi, "ieee", False, state)
      for qid in (260, 202)
      for state in ("universal", "rpl-only", "erpl-only", "empty")),
    ('//sec[about(., "information retrieval")]', "ieee30", True, "forced"),
]


def _set_state(engine, nexi, state, require_phrases):
    if state != "forced":
        _set_catalog(engine, nexi, state)
        return
    _set_catalog(engine, nexi, "empty")
    engine.auto_materialize = True
    for method in ("ta", "merge", "wand"):
        engine.evaluate(nexi, k=10, method=method,
                        require_phrases=require_phrases)
    engine.auto_materialize = False


@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_auto_is_the_stored_index_rule(kind):
    """Every row × k × mode: ``auto``, ``explain``'s ``chosen_method``
    and each shard's ``local_method`` name the rule's strategy, and
    ``auto`` is that forced strategy — ERA's answer at its cost."""
    for nexi, collection, require_phrases, state in RULE_TABLE:
        engine = _engine(kind, collection)
        _set_state(engine, nexi, state, require_phrases)
        rule = RULE[state]
        plan = ShardedEngine.from_engine(engine, 1).explain(nexi)
        for mode in MODES:
            assert engine.choose_method(engine.translate(nexi),
                                        mode) == rule
            assert plan["chosen_method"][mode] == rule
            for row in plan["shards"]:
                assert row["local_method"][mode] == rule
            for k in (1, 10, 100, None):
                cell = f"{kind} {nexi} {state} mode={mode} k={k}"
                run = functools.partial(engine.evaluate, nexi, k=k,
                                        mode=mode,
                                        require_phrases=require_phrases)
                era = run(method="era")
                run(method=rule)  # warms what the next two runs read
                auto = run(method="auto")
                forced = run(method=rule)
                assert auto.stats.method == rule, cell
                assert _answers(auto) == _answers(era), cell
                assert _answers(forced) == _answers(era), cell
                # A cost is a difference of the meter's running float
                # totals, so two equal runs agree to an ulp, not a bit.
                assert auto.stats.cost == pytest.approx(
                    forced.stats.cost, rel=1e-12), cell


@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_explain_reports_the_choice_of_each_mode(kind):
    """``explain`` asks the rule once per mode: with universal lists
    resident Q202 runs Merge over its two exhaustive clauses in nexi
    mode and over the one flat retrieval task, on the engine and on
    every shard."""
    query = PAPER_QUERIES[202]
    engine = _engine(kind, query.collection)
    _set_catalog(engine, query.nexi, "universal")
    plan = ShardedEngine.from_engine(engine, 1).explain(query.nexi)
    assert plan["chosen_method"] == {"nexi": "merge", "flat": "merge"}
    for mode, chosen in plan["chosen_method"].items():
        auto = engine.evaluate(query.nexi, k=10, method="auto", mode=mode)
        assert auto.stats.method == chosen
    for row in plan["shards"]:
        assert row["local_method"] == {"nexi": "merge", "flat": "merge"}
