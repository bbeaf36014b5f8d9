"""Tests for the TReX engine facade."""

import pytest

from repro.build import BuildTarget
from repro.corpus import AliasMapping, Collection, SyntheticIEEECorpus, Tokenizer, parse_document
from repro.errors import MissingIndexError, RetrievalError
from repro.retrieval import TrexEngine
from repro.storage.pager import PageCache
from repro.summary import IncomingSummary, TagSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def tiny_engine():
    collection = build_collection(
        "<books><journal><article>"
        "<bdy><sec><p>xml retrieval systems</p></sec>"
        "<sec><p>database indexes</p></sec></bdy>"
        "</article></journal></books>",
        "<books><journal><article>"
        "<bdy><sec><p>xml indexes for retrieval</p></sec></bdy>"
        "</article></journal></books>",
        "<books><journal><article>"
        "<bdy><sec><p>nothing relevant</p></sec></bdy>"
        "</article></journal></books>",
    )
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    return TrexEngine(collection, summary, tokenizer=Tokenizer(stopwords=()))


class TestEvaluate:
    def test_simple_query_finds_elements(self, tiny_engine):
        result = tiny_engine.evaluate("//sec[about(., xml)]", method="era")
        assert len(result.hits) == 2
        for hit in result.hits:
            assert tiny_engine.summary.label(hit.sid) == "sec"

    def test_k_none_returns_all(self, tiny_engine):
        result = tiny_engine.evaluate("//sec[about(., retrieval)]", method="merge")
        assert result.k is None
        assert len(result.hits) == 2

    def test_unknown_method_rejected(self, tiny_engine):
        with pytest.raises(RetrievalError):
            tiny_engine.evaluate("//sec[about(., xml)]", method="quantum")

    def test_unknown_mode_rejected(self, tiny_engine):
        with pytest.raises(RetrievalError):
            tiny_engine.evaluate("//sec[about(., xml)]", mode="bogus")

    def test_no_match_empty_result(self, tiny_engine):
        result = tiny_engine.evaluate("//sec[about(., nonexistentterm)]")
        assert len(result.hits) == 0

    def test_auto_method_small_k_prefers_ta(self, tiny_engine):
        """``auto`` reads the stored index, not k: Merge while both
        kinds can be stored, TA once only RPLs are."""
        result = tiny_engine.evaluate("//sec[about(., xml)]", k=2, method="auto")
        assert result.stats.method == "merge"
        for segment in list(tiny_engine.catalog.segments()):
            tiny_engine.catalog.drop_segment(segment.segment_id)
        tiny_engine.build_segments([BuildTarget("rpl", "xml")])
        tiny_engine.auto_materialize = False
        result = tiny_engine.evaluate("//sec[about(., xml)]", k=2, method="auto")
        assert result.stats.method == "ta"

    def test_auto_method_all_answers_prefers_merge(self, tiny_engine):
        result = tiny_engine.evaluate("//sec[about(., xml)]", method="auto")
        assert result.stats.method == "merge"

    def test_missing_index_without_auto_materialize(self, tiny_engine):
        tiny_engine.auto_materialize = False
        with pytest.raises(MissingIndexError):
            tiny_engine.evaluate("//sec[about(., xml)]", method="merge")

    def test_era_never_needs_redundant_indexes(self, tiny_engine):
        tiny_engine.auto_materialize = False
        result = tiny_engine.evaluate("//sec[about(., xml)]", method="era")
        assert len(result.hits) == 2


class TestMultiClauseSemantics:
    def test_support_clause_boosts_contained_targets(self, tiny_engine):
        plain = tiny_engine.evaluate("//sec[about(., retrieval)]", method="era")
        boosted = tiny_engine.evaluate(
            "//article[about(., xml)]//sec[about(., retrieval)]", method="era")
        assert len(boosted.hits) == len(plain.hits)
        by_key_plain = dict(
            (h.element_key(), h.score) for h in plain.hits)
        for hit in boosted.hits:
            assert hit.score >= by_key_plain[hit.element_key()]

    def test_and_predicate_requires_both(self, tiny_engine):
        # only doc 0 has both 'database' and 'retrieval' in its bdy
        result = tiny_engine.evaluate(
            "//article[about(.//bdy, database) and about(.//bdy, retrieval)]",
            method="era")
        assert len(result.hits) == 1
        assert result.hits[0].docid == 0
        assert tiny_engine.summary.label(result.hits[0].sid) == "article"

    def test_or_predicate_accepts_either(self, tiny_engine):
        result = tiny_engine.evaluate(
            "//article[about(.//bdy, database) or about(.//bdy, retrieval)]",
            method="era")
        assert {h.docid for h in result.hits} == {0, 1}

    def test_relative_clause_votes_for_target_ancestor(self, tiny_engine):
        result = tiny_engine.evaluate(
            "//article[about(.//sec, xml)]", method="era")
        assert len(result.hits) == 2
        for hit in result.hits:
            assert tiny_engine.summary.label(hit.sid) == "article"

    def test_methods_agree_on_multiclause(self, tiny_engine):
        query = "//article[about(., xml)]//sec[about(., retrieval)]"
        era = tiny_engine.evaluate(query, method="era")
        merge = tiny_engine.evaluate(query, method="merge")
        assert ([(h.element_key(), round(h.score, 9)) for h in era.hits]
                == [(h.element_key(), round(h.score, 9)) for h in merge.hits])


class TestFlatMode:
    def test_flat_uses_union_of_sids_and_terms(self, tiny_engine):
        translated = tiny_engine.translate(
            "//article[about(., xml)]//sec[about(., retrieval)]")
        flat_sids = translated.flat_sids()
        labels = {tiny_engine.summary.label(sid) for sid in flat_sids}
        assert labels == {"article", "sec"}
        assert set(translated.flat_term_weights()) == {"xml", "retrieval"}

    def test_flat_hits_may_mix_labels(self, tiny_engine):
        result = tiny_engine.evaluate(
            "//article[about(., xml)]//sec[about(., retrieval)]",
            method="era", mode="flat")
        labels = {tiny_engine.summary.label(h.sid) for h in result.hits}
        assert "article" in labels and "sec" in labels


class TestMaterialization:
    def test_materialize_for_query_universal(self, tiny_engine):
        tiny_engine.auto_materialize = False
        created = tiny_engine.materialize_for_query(
            "//sec[about(., xml retrieval)]", kinds=("erpl",))
        assert {segment.term for segment in created} == {"xml", "retrieval"}
        assert all(segment.is_universal for segment in created)
        result = tiny_engine.evaluate("//sec[about(., xml retrieval)]",
                                      method="merge")
        assert len(result.hits) > 0

    def test_materialize_for_query_scoped(self, tiny_engine):
        created = tiny_engine.materialize_for_query(
            "//sec[about(., xml)]", kinds=("rpl",), scope="query")
        assert len(created) == 1
        assert not created[0].is_universal

    def test_materialize_idempotent(self, tiny_engine):
        first = tiny_engine.materialize_for_query("//sec[about(., xml)]")
        second = tiny_engine.materialize_for_query("//sec[about(., xml)]")
        assert len(first) == 2 and second == []


class TestDescribe:
    def test_describe_reports_sizes(self, tiny_engine):
        info = tiny_engine.describe()
        assert info["elements_rows"] > 0
        assert info["postings_bytes"] > 0

    def test_default_summary_is_incoming(self):
        collection = build_collection("<a><b>x</b></a>")
        engine = TrexEngine(collection)
        assert engine.summary.name == "incoming"


class TestCostSeparation:
    def test_build_work_is_not_charged(self):
        collection = SyntheticIEEECorpus(num_docs=3, seed=5).build()
        engine = TrexEngine(collection)
        assert engine.cost_model.total_cost == 0.0

    def test_evaluation_is_charged(self, tiny_engine):
        before = tiny_engine.cost_model.total_cost
        tiny_engine.evaluate("//sec[about(., xml)]", method="era")
        assert tiny_engine.cost_model.total_cost > before

    def test_materialization_not_charged(self, tiny_engine):
        before = tiny_engine.cost_model.total_cost
        tiny_engine.build_segments([BuildTarget("rpl", "xml")])
        assert tiny_engine.cost_model.total_cost == before

    def test_materialization_leaves_cache_and_meter_as_found(self):
        """The build runs ERA over the base indexes, but on a private
        buffer pool and meter: a later query is neither warmer nor
        dearer for it."""
        engine = TrexEngine(SyntheticIEEECorpus(num_docs=3, seed=5).build())
        shared = PageCache(cost_model=engine.cost_model)
        engine.use_page_cache(shared)
        query = "//sec[about(., information retrieval)]"
        engine.evaluate(query, method="era")  # some blocks resident
        resident = list(shared._resident)
        touches = (shared.hits, shared.misses)
        assert resident
        counters = engine.cost_model.counters.as_dict()
        assert engine.materialize_for_query(query)
        assert list(shared._resident) == resident
        assert (shared.hits, shared.misses) == touches
        assert engine.cost_model.counters.as_dict() == counters
