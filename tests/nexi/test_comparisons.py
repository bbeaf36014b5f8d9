"""Tests for NEXI value-comparison predicates."""

import pytest

from repro.corpus import Collection, Tokenizer, parse_document
from repro.errors import NexiSyntaxError
from repro.nexi import ComparisonClause, parse_nexi, translate_query
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


class TestParsing:
    def test_numeric_comparison(self):
        query = parse_nexi("//article[.//yr > 2000]")
        (_, comp), = list(query.comparison_clauses())
        assert comp.op == ">" and comp.value == 2000.0
        assert str(comp.relative) == "//yr"

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_all_operators(self, op):
        query = parse_nexi(f"//a[.//n {op} 5]")
        (_, comp), = list(query.comparison_clauses())
        assert comp.op == op

    def test_string_equality(self):
        query = parse_nexi('//article[./lang = "EN"]')
        (_, comp), = list(query.comparison_clauses())
        assert comp.value == "en"  # normalized to lowercase
        assert not comp.is_numeric

    def test_string_ordered_comparison_rejected(self):
        with pytest.raises(NexiSyntaxError):
            parse_nexi('//article[./lang > "en"]')

    def test_combined_with_about(self):
        query = parse_nexi("//article[about(., xml) and .//yr >= 1999]")
        assert len(list(query.about_clauses())) == 1
        assert len(list(query.comparison_clauses())) == 1

    def test_bad_value_rejected(self):
        with pytest.raises(NexiSyntaxError):
            parse_nexi("//a[.//n > banana]")

    def test_round_trip_str(self):
        text = '//article[about(., xml) and .//yr > 2000]'
        rendered = str(parse_nexi(text))
        assert str(parse_nexi(rendered)) == rendered


class TestMatches:
    def test_numeric_ops(self):
        clause = ComparisonClause.__new__(ComparisonClause)
        for op, token, value, expected in [
                ("=", "5", 5.0, True), ("=", "6", 5.0, False),
                ("!=", "6", 5.0, True), ("<", "4", 5.0, True),
                ("<=", "5", 5.0, True), (">", "6", 5.0, True),
                (">=", "5", 5.0, True), (">", "4", 5.0, False)]:
            comp = ComparisonClause(parse_nexi("//a[.//n > 1]")
                                    .steps[0].predicate.relative, op, value)
            assert comp.matches(token) is expected

    def test_non_numeric_token_fails_numeric_test(self):
        comp = ComparisonClause(parse_nexi("//a[.//n > 1]")
                                .steps[0].predicate.relative, ">", 1.0)
        assert not comp.matches("hello")

    def test_string_ops(self):
        rel = parse_nexi('//a[./x = "y"]').steps[0].predicate.relative
        assert ComparisonClause(rel, "=", "en").matches("en")
        assert not ComparisonClause(rel, "=", "en").matches("fr")
        assert ComparisonClause(rel, "!=", "en").matches("fr")


class TestEvaluation:
    @pytest.fixture()
    def engine(self):
        collection = build_collection(
            "<lib><article><yr>1998</yr><sec><p>xml retrieval</p></sec></article></lib>",
            "<lib><article><yr>2005</yr><sec><p>xml indexing</p></sec></article></lib>",
            "<lib><article><yr>2010</yr><sec><p>nothing here</p></sec></article></lib>",
        )
        return TrexEngine(collection, IncomingSummary(collection),
                          tokenizer=Tokenizer(stopwords=()))

    def test_comparison_filters_targets(self, engine):
        result = engine.evaluate("//article[about(.//sec, xml) and .//yr > 2000]",
                                 method="era")
        assert [h.docid for h in result.hits] == [1]

    def test_comparison_or_about(self, engine):
        result = engine.evaluate("//article[about(.//sec, xml) or .//yr > 2006]",
                                 method="era")
        assert {h.docid for h in result.hits} == {0, 1}

    def test_pure_comparison_query(self, engine):
        result = engine.evaluate("//article[.//yr >= 2005]", method="era")
        assert {h.docid for h in result.hits} == {1, 2}
        assert all(h.score == 0.0 for h in result.hits)

    def test_translation_records_comparisons(self, engine):
        translated = engine.translate("//article[.//yr > 2000]")
        assert len(translated.comparisons) == 1
        comparison = translated.comparisons[0]
        assert engine.summary.label(next(iter(comparison.sids))) == "yr"

    def test_earlier_step_comparison_filters(self, engine):
        result = engine.evaluate(
            "//article[.//yr > 2000]//sec[about(., xml)]", method="era")
        assert [h.docid for h in result.hits] == [1]
        assert engine.summary.label(result.hits[0].sid) == "sec"

    def test_methods_agree_with_comparisons(self, engine):
        query = "//article[about(.//sec, xml) and .//yr > 2000]"
        engine.materialize_for_query(query, ("erpl",))
        era = engine.evaluate(query, method="era")
        merge = engine.evaluate(query, method="merge")
        assert ([(h.element_key(), round(h.score, 9)) for h in era.hits]
                == [(h.element_key(), round(h.score, 9)) for h in merge.hits])
