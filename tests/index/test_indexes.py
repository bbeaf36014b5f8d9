"""Tests for the physical index builders and the catalog."""

import pytest

from repro.build import BuildTarget, compute_entries_batch
from repro.corpus import AliasMapping, Collection, M_POS, Tokenizer, parse_document
from repro.errors import MissingIndexError, StorageError
from repro.index import (
    BlockedElements,
    BlockedPostings,
    IndexCatalog,
    RplEntry,
)
from repro.scoring import BM25Scorer, ScoringStats
from repro.storage import free_cost_model
from repro.summary import IncomingSummary, TagSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def small():
    return build_collection(
        "<a><b>xml db xml</b><c>db</c></a>",
        "<a><b>xml</b></a>",
    )


def build_elements(collection, summary):
    elements = BlockedElements(cost_model=free_cost_model())
    elements.rebuild(collection, summary)
    return elements


def build_postings(collection, fragment_size=64):
    postings = BlockedPostings(cost_model=free_cost_model(),
                               fragment_size=fragment_size)
    postings.rebuild(collection)
    return postings


def compute_rpl_entries(collection, summary, term, scorer, sids=None):
    """*term*'s entries as the one builder produces them: ERA over the
    two base indexes of *collection*."""
    target = BuildTarget("rpl", term,
                         scope=None if sids is None else frozenset(sids))
    return compute_entries_batch(build_elements(collection, summary),
                                 build_postings(collection), [target],
                                 scorer).entries[target]


class TestElementsTable:
    def test_one_row_per_element(self, small):
        elements = build_elements(small, TagSummary(small))
        assert len(elements) == small.stats.num_elements

    def test_rows_carry_correct_geometry(self, small):
        summary = TagSummary(small)
        elements = build_elements(small, summary)
        for document in small:
            for node in document.elements():
                sid = summary.sid_of(document.docid, node.end_pos)
                assert ((document.docid, node.end_pos, node.length)
                        in elements.sequence(sid).entries())

    def test_extent_scan_ordered_by_position(self, small):
        summary = TagSummary(small)
        elements = build_elements(small, summary)
        b_sid = next(iter(summary.sids_with_label("b")))
        rows = elements.sequence(b_sid).entries()
        assert [(r[0], r[1]) for r in rows] == sorted((r[0], r[1]) for r in rows)
        assert len(rows) == 2  # one <b> in each document


class TestPostingListsTable:
    def test_positions_recorded(self, small):
        positions = build_postings(small).sequence("xml").entries()
        # 3 real occurrences + the m-pos sentinel
        assert len(positions) == 4
        assert positions[-1] == M_POS
        assert positions[:-1] == sorted(positions[:-1])

    def test_fragmentation(self, small):
        sequence = build_postings(small, fragment_size=2).sequence("xml")
        assert sequence.block_count == 2  # 4 positions in fragments of 2
        # each fragment is keyed by its first position
        for index, header in enumerate(sequence.headers):
            assert header.first_key == sequence.read_block(index)[0]

    def test_sentinel_is_maximal(self, small):
        postings = build_postings(small)
        for term in postings.keys():
            positions = postings.sequence(term).entries()
            assert positions[-1] == M_POS
            assert all(position < M_POS for position in positions[:-1])

    def test_bad_fragment_size(self, small):
        with pytest.raises(ValueError):
            BlockedPostings(fragment_size=0)


class TestRplEntries:
    def make_scorer(self, collection):
        return BM25Scorer(ScoringStats.from_collection(collection))

    def test_term_positions(self, small):
        postings = build_postings([small.document(0)])
        positions = postings.sequence("xml").entries()
        assert positions.pop() == M_POS
        assert len(positions) == 2
        assert positions == sorted(positions)
        assert postings.sequence("nope") is None

    def test_entries_cover_all_ancestors(self, small):
        summary = TagSummary(small)
        entries = compute_rpl_entries(small, summary, "xml", self.make_scorer(small))
        # xml occurs in <b> of both docs; ancestors <a> contain it too
        labels = {summary.label(e.sid) for e in entries}
        assert labels == {"a", "b"}

    def test_entries_sorted_descending(self, small):
        summary = TagSummary(small)
        entries = compute_rpl_entries(small, summary, "xml", self.make_scorer(small))
        scores = [e.score for e in entries]
        assert scores == sorted(scores, reverse=True)

    def test_scope_restricts_sids(self, small):
        summary = TagSummary(small)
        b_sid = next(iter(summary.sids_with_label("b")))
        entries = compute_rpl_entries(small, summary, "xml", self.make_scorer(small),
                                      sids={b_sid})
        assert entries and all(e.sid == b_sid for e in entries)

    def test_tf_aggregates_subtree(self):
        collection = build_collection("<a><b>xml</b><b>xml</b></a>")
        summary = TagSummary(collection)
        scorer = self.make_scorer(collection)
        entries = compute_rpl_entries(collection, summary, "xml", scorer)
        a_sid = next(iter(summary.sids_with_label("a")))
        a_entries = [e for e in entries if e.sid == a_sid]
        assert len(a_entries) == 1
        # The <a> element's tf is 2 (both subtree occurrences).
        root = collection.document(0).root
        assert a_entries[0].score == pytest.approx(scorer.score("xml", 2, root.length))

    def test_unknown_term_gives_empty(self, small):
        summary = TagSummary(small)
        assert compute_rpl_entries(small, summary, "zzz", self.make_scorer(small)) == []

    def test_entry_accessors(self):
        entry = RplEntry(1.5, 2, 3, 40, 10)
        assert (entry.score, entry.sid, entry.docid) == (1.5, 2, 3)
        assert entry.endpos == 40 and entry.length == 10
        assert entry.startpos == 30
        assert entry.element_key() == (3, 40)


class TestCatalog:
    def entries(self):
        return [RplEntry(3.0, 1, 0, 10, 5), RplEntry(2.0, 2, 0, 20, 5),
                RplEntry(1.0, 1, 1, 10, 5)]

    def test_add_and_find_rpl(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        segment = catalog.add_rpl_segment("xml", self.entries(), scope={1, 2})
        found = catalog.find_segment("rpl", "xml", {1})
        assert found is segment
        assert segment.entry_count == 3
        assert segment.size_bytes > 0

    def test_scope_not_covering(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        catalog.add_rpl_segment("xml", self.entries(), scope={1, 2})
        assert catalog.find_segment("rpl", "xml", {3}) is None

    def test_universal_covers_everything(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        segment = catalog.add_rpl_segment("xml", self.entries(), scope=None)
        assert catalog.find_segment("rpl", "xml", {999}) is segment
        assert segment.is_universal

    def test_prefers_smallest_covering_scope(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        catalog.add_rpl_segment("xml", self.entries(), scope=None)
        narrow = catalog.add_rpl_segment("xml", self.entries()[:2], scope={1, 2})
        assert catalog.find_segment("rpl", "xml", {1, 2}) is narrow

    def test_kind_and_term_must_match(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        catalog.add_rpl_segment("xml", self.entries())
        assert catalog.find_segment("erpl", "xml", {1}) is None
        assert catalog.find_segment("rpl", "db", {1}) is None

    def test_require_segment_raises(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        with pytest.raises(MissingIndexError):
            catalog.require_segment("rpl", "xml", {1})

    def test_rpl_rows_in_rank_order(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        segment = catalog.add_rpl_segment("xml", self.entries())
        entries = catalog.segment_entries(segment)
        assert [e.score for e in entries] == [3.0, 2.0, 1.0]
        sequence = catalog.blocks_for(segment)
        ranks = [row[0] for row in sequence.entries()]
        assert ranks == [0, 1, 2]

    def test_erpl_rows_grouped_by_sid_then_position(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        segment = catalog.add_erpl_segment("xml", self.entries())
        sequence = catalog.blocks_for(segment)
        keys = [row[:3] for row in sequence.entries()]
        assert keys == sorted(keys)

    def test_drop_segment_frees_rows_and_bytes(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        segment = catalog.add_rpl_segment("xml", self.entries())
        other = catalog.add_rpl_segment("db", self.entries())
        assert catalog.total_bytes == segment.size_bytes + other.size_bytes
        catalog.drop_segment(segment.segment_id)
        assert catalog.total_bytes == other.size_bytes
        with pytest.raises(StorageError):
            catalog.blocks_for(segment)
        assert len(catalog.segment_entries(other)) == 3

    def test_drop_unknown_segment(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        with pytest.raises(StorageError):
            catalog.drop_segment(42)

    def test_describe(self):
        catalog = IndexCatalog(cost_model=free_cost_model())
        catalog.add_rpl_segment("xml", self.entries(), scope={1})
        catalog.add_erpl_segment("db", self.entries())
        lines = catalog.describe()
        assert len(lines) == 2
        assert "RPL" in lines[0] and "ERPL" in lines[1]
