"""Tests for phrase filtering and the explain() plan API."""

import pytest

from repro.corpus import Collection, Tokenizer, parse_document
from repro.retrieval import METHODS, TrexEngine
from repro.summary import IncomingSummary


def build_collection(*texts):
    # default tokenizer (with stopwords) to exercise adjacency-after-
    # stopword-removal semantics
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=Tokenizer())
        for docid, text in enumerate(texts))


@pytest.fixture()
def engine():
    collection = build_collection(
        "<a><sec>query evaluation is hard</sec></a>",
        "<a><sec>the evaluation of a query</sec></a>",       # reversed order
        "<a><sec>query processing and evaluation</sec></a>",  # not adjacent
        "<a><sec>state of the art query evaluation</sec></a>",
    )
    return TrexEngine(collection, IncomingSummary(collection))


class TestPhraseFiltering:
    QUERY = '//sec[about(., "query evaluation")]'

    def test_without_filter_all_match(self, engine):
        result = engine.evaluate(self.QUERY, method="era")
        assert {h.docid for h in result.hits} == {0, 1, 2, 3}

    def test_with_filter_only_adjacent(self, engine):
        result = engine.evaluate(self.QUERY, method="era", require_phrases=True)
        assert {h.docid for h in result.hits} == {0, 3}

    def test_stopwords_transparent_to_adjacency(self, engine):
        # "state of the art": stopwords consume no positions, so the
        # phrase "state art" matches document 3.
        result = engine.evaluate('//sec[about(., "state art")]',
                                 method="era", require_phrases=True)
        assert {h.docid for h in result.hits} == {3}

    def test_single_word_quotes_not_a_phrase(self, engine):
        result = engine.evaluate('//sec[about(., "query")]',
                                 method="era", require_phrases=True)
        assert len(result.hits) == 4

    def test_all_methods_agree_under_filter(self, engine):
        era = engine.evaluate(self.QUERY, method="era", require_phrases=True)
        merge = engine.evaluate(self.QUERY, method="merge", require_phrases=True)
        assert ([(h.element_key(), round(h.score, 9)) for h in era.hits]
                == [(h.element_key(), round(h.score, 9)) for h in merge.hits])


class TestExplain:
    def test_explain_structure(self, engine):
        plan = engine.explain('//sec[about(., query evaluation)]', k=5)
        assert plan["target_pattern"] == "//sec"
        assert plan["chosen_method"] in set(METHODS) - {"auto"}
        (clause,) = plan["clauses"]
        assert clause["role"] == "target"
        assert set(clause["terms"]) == {"query", "evaluation"}
        for term_info in clause["terms"].values():
            assert term_info["postings"] > 0

    def test_explain_reports_missing_segments(self, engine):
        plan = engine.explain('//sec[about(., query)]')
        assert plan["clauses"][0]["terms"]["query"]["rpl"] is None

    def test_explain_sees_materialized_segments(self, engine):
        engine.materialize_rpl("query")
        plan = engine.explain('//sec[about(., query)]')
        assert plan["clauses"][0]["terms"]["query"]["rpl"] is not None

    def test_explain_does_not_charge(self, engine):
        before = engine.cost_model.total_cost
        engine.explain('//sec[about(., query evaluation)]')
        assert engine.cost_model.total_cost == before

    def test_explain_includes_comparisons(self, engine):
        plan = engine.explain('//sec[about(., query) and .//yr > 2000]')
        assert plan["comparisons"] == [".//yr > 2000"]
