"""Tests for the ERA algorithm (paper Figure 2)."""

import pytest

from repro.build import BuildTarget, compute_entries_batch
from repro.corpus import Collection, Tokenizer, parse_document
from repro.index import BlockedElements, BlockedPostings
from repro.retrieval import era_raw, era_retrieve
from repro.scoring import BM25Scorer, ScoringStats
from repro.storage import free_cost_model
from repro.summary import TagSummary

from ..build.tree_walk import compute_document_entries


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


def setup(collection, cost=None):
    summary = TagSummary(collection)
    cost = cost if cost is not None else free_cost_model()
    elements = BlockedElements(cost_model=cost)
    elements.rebuild(collection, summary)
    postings = BlockedPostings(cost_model=cost, fragment_size=4)
    postings.rebuild(collection)
    return summary, elements, postings, cost


class TestEraRaw:
    def test_single_doc_tf_matrix(self):
        collection = build_collection("<a><b>xml db xml</b><c>db</c></a>")
        summary, elements, postings, cost = setup(collection)
        b_sid = next(iter(summary.sids_with_label("b")))
        results = era_raw(elements, postings, [b_sid], ["xml", "db"], cost)
        assert len(results) == 1
        element, tfs = results[0]
        assert element.sid == b_sid
        assert tfs == [2, 1]

    def test_ancestor_counts_subtree(self):
        collection = build_collection("<a><b>xml</b><b>xml</b></a>")
        summary, elements, postings, cost = setup(collection)
        a_sid = next(iter(summary.sids_with_label("a")))
        results = era_raw(elements, postings, [a_sid], ["xml"], cost)
        assert len(results) == 1
        assert results[0][1] == [2]

    def test_multiple_sids_and_docs(self):
        collection = build_collection(
            "<a><b>xml</b></a>", "<a><b>db</b><c>xml db</c></a>")
        summary, elements, postings, cost = setup(collection)
        sids = sorted(summary.sids_with_label("b") | summary.sids_with_label("c"))
        results = era_raw(elements, postings, sids, ["xml", "db"], cost)
        by_key = {(e.docid, e.endpos): tf for e, tf in results}
        assert len(by_key) == 3
        totals = [sum(tf) for tf in by_key.values()]
        assert sorted(totals) == [1, 1, 2]

    def test_elements_without_terms_not_emitted(self):
        collection = build_collection("<a><b>nothing here</b><b>xml</b></a>")
        summary, elements, postings, cost = setup(collection)
        b_sid = next(iter(summary.sids_with_label("b")))
        results = era_raw(elements, postings, [b_sid], ["xml"], cost)
        assert len(results) == 1

    def test_empty_inputs(self):
        collection = build_collection("<a>xml</a>")
        _, elements, postings, cost = setup(collection)
        assert era_raw(elements, postings, [], ["xml"], cost) == []
        assert era_raw(elements, postings, [1], [], cost) == []

    def test_absent_term(self):
        collection = build_collection("<a><b>xml</b></a>")
        summary, elements, postings, cost = setup(collection)
        b_sid = next(iter(summary.sids_with_label("b")))
        assert era_raw(elements, postings, [b_sid], ["zzz"], cost) == []

    def test_term_outside_extent_ignored(self):
        collection = build_collection("<a><b>db</b><c>xml</c></a>")
        summary, elements, postings, cost = setup(collection)
        b_sid = next(iter(summary.sids_with_label("b")))
        results = era_raw(elements, postings, [b_sid], ["xml"], cost)
        assert results == []


class TestEraRetrieve:
    def test_scores_sorted_desc(self):
        collection = build_collection(
            "<a><b>xml xml xml</b></a>", "<a><b>xml</b></a>")
        summary, elements, postings, cost = setup(collection)
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        b_sid = next(iter(summary.sids_with_label("b")))
        hits, stats = era_retrieve(elements, postings, [b_sid], ["xml"],
                                   scorer, cost)
        assert len(hits) == 2
        assert hits[0].score > hits[1].score
        assert stats.method == "era"

    def test_term_weights_scale_scores(self):
        collection = build_collection("<a><b>xml db</b></a>")
        summary, elements, postings, cost = setup(collection)
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        b_sid = next(iter(summary.sids_with_label("b")))
        plain, _ = era_retrieve(elements, postings, [b_sid], ["xml"], scorer, cost)
        boosted, _ = era_retrieve(elements, postings, [b_sid], ["xml"], scorer,
                                  cost, term_weights={"xml": 2.0})
        assert boosted[0].score == pytest.approx(2 * plain[0].score)

    def test_cost_nonzero(self):
        collection = build_collection("<a><b>xml</b></a>")
        from repro.storage import CostModel
        # build the indexes against a metered model
        summary, elements, postings, cost = setup(collection, CostModel())
        cost.reset()
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        b_sid = next(iter(summary.sids_with_label("b")))
        snapshot = cost.snapshot()
        era_retrieve(elements, postings, [b_sid], ["xml"], scorer, cost)
        assert cost.since(snapshot).total_cost > 0


class TestEraGeneratesRpls:
    """Paper §3.2: ERA is also the RPL/ERPL generator."""

    def test_agrees_with_direct_builder(self):
        collection = build_collection(
            "<a><b>xml db xml</b><c>xml</c></a>",
            "<a><b>db</b><c>xml xml</c></a>",
        )
        summary, elements, postings, cost = setup(collection)
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        target = BuildTarget("rpl", "xml")
        via_era = compute_entries_batch(elements, postings, [target],
                                        scorer).entries[target]
        direct = [entry for document in collection
                  for entry in compute_document_entries(
                      document, summary, ["xml"], scorer)["xml"]]
        direct.sort(key=lambda e: (-e.score, e.docid, e.endpos))
        assert via_era == direct
