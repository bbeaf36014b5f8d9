"""Tests for extent, posting and RPL iterators."""

import pytest

from repro.corpus import Collection, M_POS, Tokenizer, parse_document
from repro.index import BlockedElements, BlockedPostings, IndexCatalog, RplEntry
from repro.retrieval import (
    DUMMY_ELEMENT,
    ExtentIterator,
    PostingIterator,
    RplIterator,
)
from repro.retrieval.iterators import (M_POS_CODE, POSITION_BITS,
                                       encode_position, scan_extent)
from repro.storage import free_cost_model
from repro.storage.blocks import BlockOpenLog
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


def walk(elements, sid, positions):
    """``(passed, active, ending, element)`` per element the sweep of
    *positions* counts anything in, with the block opens replayed."""
    log = BlockOpenLog()
    codes = [*sorted(encode_position(p) for p in positions), M_POS_CODE]
    visits = ExtentIterator(elements, sid, log).walk(codes, 0)
    log.replay()
    return visits


def token_positions(collection):
    return [(document.docid, position)
            for document in collection for position in document.positions]


class TestExtentIterator:
    def test_first_element(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        _passed, _active, _ending, first = walk(
            elements, b_sid, token_positions(collection))[0]
        assert first.sid == b_sid and first.docid == 0
        assert not first.is_dummy

    def test_empty_extent_gives_dummy(self, fixture):
        _, _, elements, _ = fixture
        seeks = elements.cost_model.counters.seeks
        assert walk(elements, 9999, [(0, 1)]) == []
        assert elements.cost_model.counters.seeks == seeks + 1

    def test_next_element_after_walks_extent(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        visits = walk(elements, b_sid, token_positions(collection))
        spans = [element for *_, element in visits]
        assert len(spans) == 3  # two <b> in doc 0, one in doc 1
        ends = [(s.docid, s.endpos) for s in spans]
        assert ends == sorted(ends)
        # Each counts the tokens strictly inside it, and is passed at the
        # first position past its end (the last one at m-pos).
        assert [ending - active for _, active, ending, _ in visits] == [1, 2, 1]
        assert [passed for passed, *_ in visits] == [1, 3, 4]

    def test_next_element_after_skips_passed_elements(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        # positions only in document 1: the first probe leaps there
        positions = [p for p in token_positions(collection) if p[0] == 1]
        ((_passed, _active, _ending, span),) = walk(elements, b_sid,
                                                    positions)
        assert span.docid == 1

    def test_dummy_span_properties(self):
        assert DUMMY_ELEMENT.is_dummy
        assert DUMMY_ELEMENT.length == 0
        assert DUMMY_ELEMENT.end == M_POS

    def test_covers_strict(self, fixture):
        collection, summary, elements, _ = fixture
        b_sid = next(iter(summary.sids_with_label("b")))
        span = next(scan_extent(elements, b_sid))
        assert not span.covers(span.start)
        assert not span.covers(span.end)
        assert span.covers((span.docid, span.startpos + 1))


def decoded(codes):
    return [(code >> POSITION_BITS, code & ((1 << POSITION_BITS) - 1))
            for code in codes]


class TestPostingIterator:
    def test_positions_in_order_then_mpos(self, fixture):
        _, _, _, postings = fixture
        log = BlockOpenLog()
        seen = decoded(PostingIterator(postings, "xml", log).codes())
        assert seen[-1] == M_POS
        assert len(seen) == 4  # three xml occurrences + sentinel
        assert seen[:-1] == sorted(seen[:-1])

    def test_missing_term_immediately_mpos(self, fixture):
        _, _, _, postings = fixture
        log = BlockOpenLog()
        assert PostingIterator(postings, "zzz", log).codes() == []
        before = postings.cost_model.counters.page_hits
        log.replay()  # an absent term opens nothing
        assert postings.cost_model.counters.page_hits == before

    def test_mpos_repeats_after_exhaustion(self, fixture):
        _, _, _, postings = fixture
        log = BlockOpenLog()
        iterator = PostingIterator(postings, "db", log)
        first, again = iterator.codes(), iterator.codes()
        assert first == again and decoded(first)[-1] == M_POS
        counters = postings.cost_model.counters
        touches = counters.page_hits + counters.blocks_read
        log.replay()  # each read opened every fragment once
        assert (counters.page_hits + counters.blocks_read - touches
                == 2 * postings.sequence("db").block_count)


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
