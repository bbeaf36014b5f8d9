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
    # nexi mode runs each of the two clauses at k=None: Merge, not TA
    assert engine.choose_method(translated, 5) == "merge"
    assert engine.choose_method(translated, 5, "flat") == "era"
    assert engine.missing_segments(translated, ("rpl",), mode="flat")


@pytest.mark.parametrize("state, expected", [("universal", "merge"),
                                             ("rpl-only", "ta"),
                                             ("empty", "era")])
@pytest.mark.parametrize("qid", (202, 233))
@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_multi_clause_nexi_is_chosen_at_the_clause_k(kind, qid, state,
                                                     expected):
    """Q202 and Q233 have two clauses, and nexi mode runs each of them
    exhaustively: the rule is asked about k=None whatever the request's
    k, so never TA with a heap that cannot fill nor WAND with θ = −∞."""
    query = PAPER_QUERIES[qid]
    engine = _engine(kind, query.collection)
    _set_catalog(engine, query.nexi, state)
    translated = engine.translate(query.nexi)
    for k in (1, 10, 100):
        assert engine.choose_method(translated, k) == expected
        assert engine.explain(query.nexi, k)["chosen_method"]["nexi"] == expected
        auto = engine.evaluate(query.nexi, k=k, method="auto")
        assert auto.stats.method == expected
        era = engine.evaluate(query.nexi, k=k, method="era")
        assert _answers(auto) == _answers(era)


@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_one_clause_and_flat_requests_keep_their_k(kind):
    engine = _engine(kind, "ieee")
    for qid, mode in ((260, "nexi"), (202, "flat")):
        nexi = PAPER_QUERIES[qid].nexi
        _set_catalog(engine, nexi, "universal")
        translated = engine.translate(nexi)
        assert engine.choose_method(translated, 10, mode) == "ta"
        assert engine.choose_method(translated, 100, mode) == "wand"
        assert engine.choose_method(translated, None, mode) == "merge"


@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_explain_reports_the_choice_of_each_mode(kind):
    """``explain`` asks the rule once per mode: Q202 at k=10 runs Merge
    over its two exhaustive clauses in nexi mode, and TA over the one
    flat retrieval task, on the engine and on every shard."""
    query = PAPER_QUERIES[202]
    engine = _engine(kind, query.collection)
    _set_catalog(engine, query.nexi, "universal")
    plan = engine.explain(query.nexi, 10)
    assert plan["chosen_method"] == {"nexi": "merge", "flat": "ta"}
    for mode, chosen in plan["chosen_method"].items():
        auto = engine.evaluate(query.nexi, k=10, method="auto", mode=mode)
        assert auto.stats.method == chosen
    for row in plan.get("shards", ()):
        assert row["local_method"] == {"nexi": "merge", "flat": "ta"}
