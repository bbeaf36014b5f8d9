"""Edge-case coverage for the engine: method choice, modes, validation."""

import pytest

from repro.build import BuildTarget
from repro.corpus import Collection, Tokenizer, parse_document
from repro.errors import RetrievalError
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def engine():
    collection = build_collection(
        "<a><sec>xml retrieval</sec></a>",
        "<a><sec>xml indexes</sec></a>")
    return TrexEngine(collection, IncomingSummary(collection),
                      tokenizer=Tokenizer(stopwords=()))


class TestValidation:
    def test_k_zero_rejected(self, engine):
        with pytest.raises(RetrievalError):
            engine.evaluate("//sec[about(., xml)]", k=0)

    def test_k_negative_rejected(self, engine):
        with pytest.raises(RetrievalError):
            engine.evaluate("//sec[about(., xml)]", k=-3)

    def test_bad_materialize_scope(self, engine):
        with pytest.raises(RetrievalError):
            engine.materialize_for_query("//sec[about(., xml)]", scope="galactic")


class TestChooseMethodWithoutAutoMaterialize:
    def test_era_when_nothing_materialized(self, engine):
        engine.auto_materialize = False
        translated = engine.translate("//sec[about(., xml)]")
        assert engine.choose_method(translated) == "era"

    def test_ta_when_only_rpl(self, engine):
        engine.build_segments([BuildTarget("rpl", "xml")])
        engine.auto_materialize = False
        translated = engine.translate("//sec[about(., xml)]")
        assert engine.choose_method(translated) == "ta"

    def test_merge_when_erpl_available(self, engine):
        engine.build_segments([BuildTarget("erpl", "xml")])
        engine.auto_materialize = False
        translated = engine.translate("//sec[about(., xml)]")
        assert engine.choose_method(translated) == "merge"

    def test_small_k_prefers_ta_when_both(self, engine):
        """The stored index decides, not k: with both kinds stored the
        ERPL's Merge wins at every k; TA is the choice only when RPLs
        alone are stored (:meth:`test_ta_when_only_rpl`)."""
        engine.build_segments([BuildTarget("rpl", "xml"),
                               BuildTarget("erpl", "xml")])
        engine.auto_materialize = False
        translated = engine.translate("//sec[about(., xml)]")
        assert engine.choose_method(translated) == "merge"
        for k in (3, 500):
            result = engine.evaluate("//sec[about(., xml)]", k=k)
            assert result.stats.method == "merge"


class TestFlatTermWeights:
    def test_max_weight_wins_across_clauses(self, engine):
        translated = engine.translate(
            "//a[about(., xml)]//sec[about(., +xml retrieval)]")
        weights = translated.flat_term_weights()
        assert weights["xml"] == 2.0  # emphasized in one clause
        assert weights["retrieval"] == 1.0


class TestEmptyClauseHandling:
    def test_query_with_unmatched_structure(self, engine):
        result = engine.evaluate("//nonexistenttag[about(., xml)]", method="era")
        assert result.hits == []

    def test_query_with_only_stopword_keywords(self, engine):
        eng = TrexEngine(engine.collection, engine.summary)  # default stopwords
        result = eng.evaluate("//sec[about(., the of and)]", method="era")
        assert result.hits == []


class TestStructuralOnlyQueries:
    """Queries without about clauses enumerate the target extents —
    through the block store, like every other query."""

    def test_structural_query_is_charged_block_reads(self, engine):
        before = engine.cost_model.snapshot()
        page_reads = engine.cost_model.counters.page_reads
        result = engine.evaluate("//a//sec")
        spent = engine.cost_model.since(before)

        assert result.element_keys() == [
            (document.docid, node.end_pos)
            for document in engine.collection
            for node in document.elements() if node.tag == "sec"]
        assert all(hit.score == 0.0 for hit in result.hits)
        sid, = engine.translate("//a//sec").target_sids
        sequence = engine.blocked_elements.sequence(sid)
        assert spent.blocks_read == sequence.block_count > 0
        assert spent.entries_decoded == len(result.hits) == 2
        # ...and no row-store page traffic beside the block reads.
        assert engine.cost_model.counters.page_reads == page_reads

    def test_comparison_only_query_matches_by_value(self):
        collection = build_collection(
            "<a><yr>1999</yr><sec>old</sec></a>",
            "<a><yr>2004</yr><sec>new</sec></a>")
        engine = TrexEngine(collection, IncomingSummary(collection),
                            tokenizer=Tokenizer(stopwords=()))
        before = engine.cost_model.snapshot()
        result = engine.evaluate("//a[.//yr > 2000]//sec")
        assert [hit.docid for hit in result.hits] == [1]
        assert engine.cost_model.since(before).blocks_read > 0
