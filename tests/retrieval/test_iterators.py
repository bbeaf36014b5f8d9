"""Tests for extent, posting, RPL and ERPL iterators."""

import pytest

from repro.corpus import Collection, M_POS, Tokenizer, parse_document
from repro.index import BlockedElements, BlockedPostings, IndexCatalog, RplEntry
from repro.retrieval import (
    DUMMY_ELEMENT,
    ErplIterator,
    ExtentIterator,
    PostingIterator,
    RplIterator,
)
from repro.storage import free_cost_model
from repro.summary import TagSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def fixture():
    collection = build_collection(
        "<a><b>xml</b><b>db xml</b></a>",
        "<a><b>xml</b></a>",
    )
    summary = TagSummary(collection)
    elements = BlockedElements(cost_model=free_cost_model())
    elements.rebuild(collection, summary)
    postings = BlockedPostings(cost_model=free_cost_model(), fragment_size=2)
    postings.rebuild(collection)
    return collection, summary, elements, postings


class TestExtentIterator:
    def test_first_element(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        iterator = ExtentIterator(elements, b_sid)
        first = iterator.first_element()
        assert first.sid == b_sid and first.docid == 0
        assert not first.is_dummy

    def test_empty_extent_gives_dummy(self, fixture):
        _, _, elements, _ = fixture
        iterator = ExtentIterator(elements, 9999)
        assert iterator.first_element() is DUMMY_ELEMENT

    def test_next_element_after_walks_extent(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        iterator = ExtentIterator(elements, b_sid)
        spans = [iterator.first_element()]
        while True:
            nxt = iterator.next_element_after(spans[-1].end)
            if nxt.is_dummy:
                break
            spans.append(nxt)
        assert len(spans) == 3  # two <b> in doc 0, one in doc 1
        ends = [(s.docid, s.endpos) for s in spans]
        assert ends == sorted(ends)

    def test_next_element_after_skips_passed_elements(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        iterator = ExtentIterator(elements, b_sid)
        # jump straight into document 1
        span = iterator.next_element_after((1, 0))
        assert span.docid == 1

    def test_dummy_span_properties(self):
        assert DUMMY_ELEMENT.is_dummy
        assert DUMMY_ELEMENT.length == 0
        assert DUMMY_ELEMENT.end == M_POS

    def test_covers_strict(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        span = ExtentIterator(elements, b_sid).first_element()
        assert not span.covers(span.start)
        assert not span.covers(span.end)
        assert span.covers((span.docid, span.startpos + 1))


class TestPostingIterator:
    def test_positions_in_order_then_mpos(self, fixture):
        _, _, _, postings = fixture
        iterator = PostingIterator(postings, "xml")
        seen = []
        while (chunk := iterator.next_chunk()) is not None:
            assert 0 < len(chunk) <= 2  # fragment_size
            seen.extend(chunk)
        assert seen[-1] == M_POS
        assert len(seen) == 4  # three xml occurrences + sentinel
        assert seen[:-1] == sorted(seen[:-1])

    def test_missing_term_immediately_mpos(self, fixture):
        _, _, _, postings = fixture
        iterator = PostingIterator(postings, "zzz")
        assert iterator.next_chunk() is None

    def test_mpos_repeats_after_exhaustion(self, fixture):
        _, _, _, postings = fixture
        iterator = PostingIterator(postings, "db")
        last = None
        while (chunk := iterator.next_chunk()) is not None:
            last = chunk
        assert last[-1] == M_POS
        assert iterator.next_chunk() is None
        assert iterator.next_chunk() is None


def _catalog_with_entries():
    catalog = IndexCatalog(cost_model=free_cost_model())
    entries = [
        RplEntry(5.0, 1, 0, 10, 4),
        RplEntry(4.0, 2, 0, 20, 4),
        RplEntry(3.0, 1, 1, 10, 4),
        RplEntry(2.0, 3, 1, 20, 4),
        RplEntry(1.0, 1, 2, 10, 4),
    ]
    rpl = catalog.add_rpl_segment("xml", entries)
    erpl = catalog.add_erpl_segment("xml", entries)
    return catalog, rpl, erpl


class TestRplIterator:
    def test_descending_scores_with_skipping(self):
        catalog, rpl, _ = _catalog_with_entries()
        iterator = RplIterator(catalog, rpl, sids={1})
        scores = []
        while entries := iterator.next_entries(1):
            (entry,) = entries
            scores.append(entry.score)
            assert entry.sid == 1
        assert scores == [5.0, 3.0, 1.0]
        assert iterator.depth == 5  # skipped rows still read
        assert iterator.skipped == 2
        assert iterator.exhausted

    def test_upper_bound_tracks_last_read(self):
        catalog, rpl, _ = _catalog_with_entries()
        iterator = RplIterator(catalog, rpl, sids={1, 2, 3})
        # Before any read the bound is the first block's block-max.
        assert iterator.upper_bound == 5.0
        iterator.next_entries(1)
        assert iterator.upper_bound == 5.0
        while iterator.next_entries(1):
            pass
        assert iterator.upper_bound == 0.0

    def test_upper_bound_of_a_fully_consumed_list_is_zero(self):
        # Regression: with the last entry returned nothing unreturned
        # remains, so the bound is 0.0 at once — not the last-read score
        # until a further (empty) call notices the exhaustion.
        catalog, rpl, _ = _catalog_with_entries()
        iterator = RplIterator(catalog, rpl, sids={1, 2, 3})
        assert len(iterator.next_entries(5)) == 5
        assert iterator.last_read_score == 1.0
        assert iterator.upper_bound == 0.0
        assert iterator.next_entries(1) == []
        assert iterator.exhausted and iterator.upper_bound == 0.0

    def test_empty_sid_filter(self):
        catalog, rpl, _ = _catalog_with_entries()
        iterator = RplIterator(catalog, rpl, sids=set())
        assert iterator.next_entries(1) == []
        assert iterator.depth == 5


class TestErplIterator:
    def test_position_order_across_sids(self):
        catalog, _, erpl = _catalog_with_entries()
        iterator = ErplIterator(catalog, erpl, sids={1, 2, 3})
        positions = []
        while not iterator.exhausted:
            positions.append(iterator.current_position)
            iterator.consume_head()
        assert positions == sorted(positions)
        assert len(positions) == 5

    def test_sid_restriction_reads_only_ranges(self):
        catalog, _, erpl = _catalog_with_entries()
        iterator = ErplIterator(catalog, erpl, sids={1})
        entries = []
        while not iterator.exhausted:
            entries.append(iterator.consume_head())
        assert [e.sid for e in entries] == [1, 1, 1]
        assert iterator.depth == 3  # never touched sids 2 and 3

    def test_exhausted_properties(self):
        catalog, _, erpl = _catalog_with_entries()
        iterator = ErplIterator(catalog, erpl, sids=set())
        assert iterator.exhausted
        assert iterator.current is None
        assert iterator.current_position == M_POS
        assert iterator.take_until(M_POS) == []
