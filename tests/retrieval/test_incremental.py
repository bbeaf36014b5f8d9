"""Tests for incremental document addition and index maintenance."""

import pytest

from repro.corpus import Collection, Tokenizer, parse_document
from repro.errors import SummaryError, TrexError
from repro.index.postings import extend_posting_lists
from repro.retrieval import TrexEngine
from repro.summary import FBIndex, IncomingSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def engine():
    collection = build_collection(
        "<a><sec>xml retrieval</sec></a>",
        "<a><sec>databases</sec></a>",
    )
    return TrexEngine(collection, IncomingSummary(collection),
                      tokenizer=Tokenizer(stopwords=()))


class TestAddDocument:
    def test_new_document_becomes_searchable(self, engine):
        before = len(engine.evaluate("//sec[about(., xml)]", method="era").hits)
        engine.add_document("<a><sec>more xml content</sec></a>")
        after = engine.evaluate("//sec[about(., xml)]", method="era")
        assert len(after.hits) == before + 1
        assert {h.docid for h in after.hits} == {0, 2}

    def test_docid_assigned_automatically(self, engine):
        document = engine.add_document("<a><sec>fresh</sec></a>")
        assert document.docid == 2
        another = engine.add_document("<a><sec>fresher</sec></a>")
        assert another.docid == 3

    def test_explicit_docid_conflict_rejected(self, engine):
        with pytest.raises(TrexError):
            engine.add_document("<a><sec>dup</sec></a>", docid=0)

    def test_new_paths_get_new_sids(self, engine):
        before = engine.summary.sid_count
        engine.add_document("<a><appendix>extra</appendix></a>")
        assert engine.summary.sid_count == before + 1
        result = engine.evaluate("//appendix[about(., extra)]", method="era")
        assert len(result.hits) == 1

    def test_elements_table_updated(self, engine):
        rows_before = len(engine.blocked_elements)
        document = engine.add_document("<a><sec>x y</sec></a>")
        assert (len(engine.blocked_elements)
                == rows_before + document.element_count())

    def test_affected_segments_gain_delta_runs(self, engine):
        xml_seg = engine.materialize_rpl("xml")
        db_seg = engine.materialize_rpl("databases")
        engine.add_document("<a><sec>xml again</sec></a>")
        # 'xml' segment kept with an LSM delta run appended;
        # 'databases' untouched — no delta.
        assert engine.catalog.find_segment("rpl", "xml", set()) is not None
        assert engine.catalog.delta_run_count(xml_seg.segment_id) == 1
        assert engine.catalog.delta_run_count(db_seg.segment_id) == 0
        snapshot = engine.catalog.delta_snapshot()
        assert snapshot["deltas_appended"] == 1
        assert snapshot["segments_with_deltas"] == 1

    def test_methods_agree_after_adds(self, engine):
        engine.add_document("<a><sec>xml xml retrieval</sec></a>")
        engine.add_document("<a><sec>retrieval only</sec></a>")
        query = "//sec[about(., xml retrieval)]"
        era = engine.evaluate(query, method="era")
        merge = engine.evaluate(query, method="merge")
        ta = engine.evaluate(query, k=10, method="ta")
        reference = [(h.element_key(), round(h.score, 9)) for h in era.hits]
        assert [(h.element_key(), round(h.score, 9)) for h in merge.hits] == reference
        assert [(h.element_key(), round(h.score, 9)) for h in ta.hits] == reference[:10]

    def test_fb_index_refuses_extension(self):
        collection = build_collection("<a><sec>x</sec></a>")
        engine = TrexEngine(collection, FBIndex(collection),
                            tokenizer=Tokenizer(stopwords=()))
        with pytest.raises(SummaryError):
            engine.add_document("<a><sec>y</sec></a>")

    def test_add_not_charged(self, engine):
        before = engine.cost_model.total_cost
        engine.add_document("<a><sec>quiet</sec></a>")
        assert engine.cost_model.total_cost == before


class TestRebuildScorer:
    def test_rebuild_refreshes_stats_and_drops_segments(self, engine):
        engine.materialize_rpl("xml")
        old_scorer = engine.scorer
        engine.add_document("<a><sec>xml xml</sec></a>")
        engine.rebuild_scorer()
        assert engine.scorer is not old_scorer
        assert engine.scorer.stats.num_documents == 3
        assert list(engine.catalog.segments()) == []

    def test_rebuild_with_custom_factory(self, engine):
        from repro.scoring import TfIdfScorer
        engine.rebuild_scorer(lambda stats: TfIdfScorer(stats))
        assert isinstance(engine.scorer, TfIdfScorer)


class TestExtendPostingLists:
    def test_merges_positions_in_order(self):
        collection = build_collection("<a>xml db</a>")
        from repro.index import BlockedPostings
        from repro.storage import free_cost_model
        postings = BlockedPostings(cost_model=free_cost_model(),
                                   fragment_size=2)
        postings.rebuild(collection)
        new_doc = parse_document("<a>xml xml</a>", 1,
                                 tokenizer=Tokenizer(stopwords=()))
        affected = extend_posting_lists(postings, new_doc)
        assert affected == {"xml"}
        sequence = postings.sequence("xml")
        assert [h.count for h in sequence.headers] == [2, 2]  # re-fragmented
        positions = sequence.entries()
        from repro.corpus import M_POS
        assert positions[-1] == M_POS
        real = positions[:-1]
        assert len(real) == 3
        assert real == sorted(real)
        # exactly one sentinel in the whole list
        assert positions.count(M_POS) == 1


class TestIngestKeepsPhysicalLayout:
    """Ingest re-encodes with the sizes the engine was built with, not
    the module defaults."""

    @pytest.mark.parametrize("fragment_size,block_size", [(4, 3), (64, 128)])
    def test_ingest_is_byte_identical_to_a_fresh_build(self, fragment_size,
                                                       block_size):
        from repro.corpus import SyntheticIEEECorpus
        documents = list(SyntheticIEEECorpus(num_docs=8, seed=5).build())

        def make(docs):
            collection = Collection.from_documents(docs)
            return TrexEngine(collection, IncomingSummary(collection),
                              fragment_size=fragment_size,
                              block_size=block_size)

        grown = make(documents[:5])
        for document in documents[5:]:
            grown.add_document(document)
        fresh = make(documents)

        assert grown.blocked_postings.chunk == fragment_size
        assert (grown.blocked_postings.to_bytes()
                == fresh.blocked_postings.to_bytes())
        assert grown.blocked_elements.chunk == block_size
        assert (grown.blocked_elements.to_bytes()
                == fresh.blocked_elements.to_bytes())
        assert len(grown.blocked_postings) == len(fresh.blocked_postings)
