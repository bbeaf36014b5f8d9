"""Tests for the language-model impact scorer and scorer swapping."""

import pytest

from repro.corpus import Collection, Tokenizer, parse_document
from repro.retrieval import TrexEngine
from repro.scoring import LMImpactScorer, ScoringStats
from repro.summary import IncomingSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def stats():
    collection = build_collection("<a>xml xml db</a>", "<a>xml</a>", "<a>db</a>")
    return ScoringStats.from_collection(collection)


class TestLMImpactScorer:
    def test_zero_tf(self, stats):
        assert LMImpactScorer(stats).score("xml", 0, 10) == 0.0

    def test_unknown_term_smoothed_as_rare(self, stats):
        scorer = LMImpactScorer(stats)
        assert scorer.score("nope", 5, 10) >= scorer.score("xml", 5, 10)

    def test_monotone_in_tf(self, stats):
        scorer = LMImpactScorer(stats)
        scores = [scorer.score("xml", tf, 10) for tf in range(1, 20)]
        assert scores == sorted(scores)
        assert all(s > 0 for s in scores)

    def test_rare_terms_weigh_more(self, stats):
        collection = build_collection("<a>xml rare</a>", "<a>xml</a>", "<a>xml</a>")
        scorer = LMImpactScorer(ScoringStats.from_collection(collection))
        assert scorer.score("rare", 1, 10) > scorer.score("xml", 1, 10)

    def test_mu_dampens(self, stats):
        low_mu = LMImpactScorer(stats, mu=10.0)
        high_mu = LMImpactScorer(stats, mu=10_000.0)
        assert low_mu.score("xml", 2, 10) > high_mu.score("xml", 2, 10)

    def test_bad_mu(self, stats):
        with pytest.raises(ValueError):
            LMImpactScorer(stats, mu=0)

    def test_max_score_bounds_typical_tfs(self, stats):
        scorer = LMImpactScorer(stats)
        bound = scorer.max_score("xml")
        for tf in (1, 5, 50):
            assert scorer.score("xml", tf, tf + 1) <= bound


class TestScorerSwap:
    def test_engine_with_lm_scorer_keeps_method_consistency(self):
        collection = build_collection(
            "<a><sec>xml retrieval xml</sec></a>",
            "<a><sec>xml db</sec><sec>retrieval</sec></a>")
        scorer = LMImpactScorer(ScoringStats.from_collection(collection))
        engine = TrexEngine(collection, IncomingSummary(collection),
                            scorer=scorer, tokenizer=Tokenizer(stopwords=()))
        query = "//sec[about(., xml retrieval)]"
        engine.materialize_for_query(query)
        era = engine.evaluate(query, method="era")
        merge = engine.evaluate(query, method="merge")
        ta = engine.evaluate(query, k=5, method="ta")
        reference = [(h.element_key(), round(h.score, 9)) for h in era.hits]
        assert [(h.element_key(), round(h.score, 9)) for h in merge.hits] == reference
        assert [(h.element_key(), round(h.score, 9)) for h in ta.hits] == reference[:5]

    def test_scorers_rank_differently_sometimes(self):
        # Not asserting a specific disagreement — just that both produce
        # valid rankings over the same answers.
        from repro.scoring import BM25Scorer
        collection = build_collection(
            "<a><sec>xml xml xml xml</sec></a>",
            "<a><sec>xml retrieval</sec></a>")
        stats = ScoringStats.from_collection(collection)
        for scorer in (BM25Scorer(stats), LMImpactScorer(stats)):
            engine = TrexEngine(collection, IncomingSummary(collection),
                                scorer=scorer, tokenizer=Tokenizer(stopwords=()))
            result = engine.evaluate("//sec[about(., xml)]", method="era")
            assert len(result.hits) == 2
            assert result.hits[0].score >= result.hits[1].score
