"""Tests for scorers, stats, and score combination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Collection, Tokenizer, parse_document
from repro.scoring import (
    BM25Scorer,
    ScoredHit,
    ScoringStats,
    TfIdfScorer,
)


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def stats():
    collection = build_collection(
        "<a>xml xml db</a>", "<a>xml</a>", "<a>db store</a>", "<a>store</a>")
    return ScoringStats.from_collection(collection)


class TestScoringStats:
    def test_snapshot_fields(self, stats):
        assert stats.num_documents == 4
        assert stats.df("xml") == 2
        assert stats.df("absent") == 0
        assert stats.average_element_length > 0

    def test_immutable_mapping(self, stats):
        with pytest.raises(TypeError):
            stats.document_frequency["xml"] = 99


class TestBM25:
    def test_zero_tf_zero_score(self, stats):
        assert BM25Scorer(stats).score("xml", 0, 10) == 0.0

    def test_unknown_term_smoothed_as_rare(self, stats):
        scorer = BM25Scorer(stats)
        # Unseen terms (df=0 in the snapshot) score like df=1 terms, so
        # documents added after the snapshot still rank (no hits can
        # appear for truly absent terms — they have no postings).
        assert scorer.score("nope", 3, 10) > 0.0
        assert scorer.idf("nope") >= scorer.idf("xml")

    def test_monotone_in_tf(self, stats):
        scorer = BM25Scorer(stats)
        scores = [scorer.score("xml", tf, 10) for tf in range(1, 10)]
        assert scores == sorted(scores)

    def test_longer_elements_penalized(self, stats):
        scorer = BM25Scorer(stats)
        assert scorer.score("xml", 2, 5) > scorer.score("xml", 2, 500)

    def test_rarer_terms_score_higher(self, stats):
        scorer = BM25Scorer(stats)
        # 'store' appears in 2 docs, same as xml; craft rarer term df=1
        collection = build_collection("<a>xml rare</a>", "<a>xml</a>", "<a>xml</a>")
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        assert scorer.score("rare", 1, 10) > scorer.score("xml", 1, 10)

    def test_max_score_bounds(self, stats):
        scorer = BM25Scorer(stats)
        bound = scorer.max_score("xml")
        for tf in (1, 2, 5, 100):
            for length in (1, 10, 1000):
                assert scorer.score("xml", tf, length) <= bound + 1e-12

    def test_bad_parameters(self, stats):
        with pytest.raises(ValueError):
            BM25Scorer(stats, k1=-1)
        with pytest.raises(ValueError):
            BM25Scorer(stats, b=2.0)

    @given(st.integers(1, 500), st.integers(1, 10000))
    @settings(max_examples=100, deadline=None)
    def test_always_non_negative(self, tf, length):
        collection = build_collection("<a>xml db</a>", "<a>xml</a>")
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        assert scorer.score("xml", tf, length) >= 0.0


class TestTfIdf:
    def test_basics(self, stats):
        scorer = TfIdfScorer(stats)
        assert scorer.score("xml", 0, 10) == 0.0
        assert scorer.score("xml", 2, 10) > 0.0
        # unseen terms are smoothed as maximally rare, not zeroed
        assert scorer.score("nope", 2, 10) >= scorer.score("xml", 2, 10)

    def test_max_score_bound(self, stats):
        scorer = TfIdfScorer(stats)
        bound = scorer.max_score("xml")
        for tf in (1, 2, 5, 20):
            # tf can never exceed element token capacity; length >= tf + 1
            assert scorer.score("xml", tf, tf + 1) <= bound + 1e-12


class TestScoredHit:
    def test_geometry(self):
        hit = ScoredHit(score=1.0, docid=3, end_pos=50, sid=7, length=10)
        assert hit.start_pos == 40
        assert hit.element_key() == (3, 50)

    def test_containment(self):
        outer = ScoredHit(1.0, 0, 100, length=90)
        inner = ScoredHit(1.0, 0, 50, length=10)
        other_doc = ScoredHit(1.0, 1, 50, length=10)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert not outer.contains(other_doc)
