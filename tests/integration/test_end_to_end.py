"""End-to-end integration tests across all subsystems."""

import pytest

from repro import (
    AliasMapping,
    IncomingSummary,
    IndexAdvisor,
    SyntheticIEEECorpus,
    SyntheticWikipediaCorpus,
    TrexEngine,
    Workload,
)
from repro.bench import PAPER_QUERIES
from repro.summary import AKIndex, TagSummary


@pytest.fixture(scope="module")
def ieee_engine():
    collection = SyntheticIEEECorpus(num_docs=15, seed=31).build()
    return TrexEngine(collection,
                      IncomingSummary(collection, alias=AliasMapping.inex_ieee()))


@pytest.fixture(scope="module")
def wiki_engine():
    collection = SyntheticWikipediaCorpus(num_docs=25, seed=31).build()
    return TrexEngine(collection,
                      IncomingSummary(collection, alias=AliasMapping.inex_wikipedia()))


class TestPaperQueriesEndToEnd:
    @pytest.mark.parametrize("qid", sorted(PAPER_QUERIES))
    def test_every_paper_query_evaluates(self, ieee_engine, wiki_engine, qid):
        paper_query = PAPER_QUERIES[qid]
        engine = ieee_engine if paper_query.collection == "ieee" else wiki_engine
        result = engine.evaluate(paper_query.nexi, k=10, method="merge")
        assert result.stats.cost > 0
        for hit in result.hits:
            assert hit.score > 0

    @pytest.mark.parametrize("qid", [202, 260, 290])
    def test_methods_agree_on_paper_queries(self, ieee_engine, wiki_engine, qid):
        paper_query = PAPER_QUERIES[qid]
        engine = ieee_engine if paper_query.collection == "ieee" else wiki_engine
        results = {
            method: engine.evaluate(paper_query.nexi, k=10, method=method,
                                    mode="flat")
            for method in ("era", "ta", "merge")}
        reference = [(h.element_key(), round(h.score, 9))
                     for h in results["era"].hits]
        for method, result in results.items():
            assert [(h.element_key(), round(h.score, 9))
                    for h in result.hits] == reference, method


class TestAnswersAreRealElements:
    def test_hits_resolve_to_elements_with_terms(self, ieee_engine):
        result = ieee_engine.evaluate("//sec[about(., information)]",
                                      method="era")
        assert result.hits
        for hit in result.hits[:20]:
            document = ieee_engine.collection.document(hit.docid)
            node = document.find_by_end(hit.end_pos)
            assert node is not None
            terms = {t.term for t in document.tokens_in_span(
                node.start_pos, node.end_pos)}
            assert "information" in terms

    def test_hit_sids_match_query_structure(self, ieee_engine):
        result = ieee_engine.evaluate("//article//sec[about(., information)]",
                                      method="merge")
        for hit in result.hits:
            assert ieee_engine.summary.label(hit.sid) == "sec"


class TestAlternativeSummaries:
    """The engine works with every summary of the family (paper §2.1)."""

    @pytest.mark.parametrize("summary_factory", [
        lambda c: TagSummary(c, alias=AliasMapping.identity()),
        lambda c: IncomingSummary(c, alias=AliasMapping.identity()),
        lambda c: AKIndex(c, k=2, alias=AliasMapping.inex_ieee()),
    ])
    def test_engine_over_summary(self, summary_factory):
        collection = SyntheticIEEECorpus(num_docs=6, seed=13).build()
        engine = TrexEngine(collection, summary_factory(collection))
        era = engine.evaluate("//sec[about(., information)]", method="era",
                              mode="flat")
        merge = engine.evaluate("//sec[about(., information)]", method="merge",
                                mode="flat")
        assert ([(h.element_key(), round(h.score, 9)) for h in era.hits]
                == [(h.element_key(), round(h.score, 9)) for h in merge.hits])

    def test_finer_summary_gives_fewer_or_equal_sids_per_pattern(self):
        collection = SyntheticIEEECorpus(num_docs=6, seed=13).build()
        tag = TrexEngine(collection, TagSummary(collection,
                                                alias=AliasMapping.inex_ieee()))
        incoming = TrexEngine(collection, IncomingSummary(
            collection, alias=AliasMapping.inex_ieee()))
        q = "//article//sec[about(., information)]"
        tag_sids = tag.translate(q).num_sids
        incoming_sids = incoming.translate(q).num_sids
        assert tag_sids <= incoming_sids


class TestAdvisorEndToEnd:
    def test_full_selfmanagement_cycle(self, ieee_engine):
        workload = Workload.uniform([
            ("w1", "//sec[about(., information retrieval)]", 5),
            ("w2", "//article[about(., ontologies)]", 5),
        ])
        advisor = IndexAdvisor(ieee_engine)
        plan = advisor.recommend(workload, disk_budget=10**6, method="ilp")
        applied = advisor.apply(workload, plan)
        achieved = advisor.achieved_cost(workload, applied)
        assert achieved < advisor.baseline_cost(workload)


class TestPersistence:
    def test_tables_round_trip_through_disk(self, tmp_path, ieee_engine):
        ieee_engine.save_indexes(str(tmp_path))
        assert not list(tmp_path.rglob("*.tbl"))

        fresh = TrexEngine(ieee_engine.collection, ieee_engine.summary)
        fresh.load_indexes(str(tmp_path))
        for name in ("blocked_elements", "blocked_postings"):
            original, reloaded = getattr(ieee_engine, name), getattr(fresh, name)
            assert len(reloaded) == len(original)
            assert reloaded.to_bytes() == original.to_bytes()
        # posting payloads decode to the same structure
        term = ieee_engine.blocked_postings.keys()[0]
        assert (fresh.blocked_postings.sequence(term).entries()
                == ieee_engine.blocked_postings.sequence(term).entries())


class TestScale:
    def test_larger_corpus_more_answers(self):
        small = SyntheticIEEECorpus(num_docs=5, seed=17).build()
        large = SyntheticIEEECorpus(num_docs=20, seed=17).build()
        q = "//article//sec[about(., introduction information retrieval)]"
        count_small = len(TrexEngine(
            small, IncomingSummary(small, alias=AliasMapping.inex_ieee())
        ).evaluate(q, method="era").hits)
        count_large = len(TrexEngine(
            large, IncomingSummary(large, alias=AliasMapping.inex_ieee())
        ).evaluate(q, method="era").hits)
        assert count_large > count_small
