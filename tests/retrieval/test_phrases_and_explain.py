"""Tests for phrase filtering and the explain() plan API."""

import pytest

from repro.build import BuildTarget
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          Tokenizer, parse_document)
from repro.retrieval import METHODS, TrexEngine
from repro.shard import ShardedEngine
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
    @staticmethod
    def explain(engine, nexi):
        return ShardedEngine.from_engine(engine, 1).explain(nexi)

    def test_explain_structure(self, engine):
        plan = self.explain(engine, '//sec[about(., query evaluation)]')
        assert plan["target_pattern"] == "//sec"
        assert set(plan["chosen_method"]) == {"nexi", "flat"}
        assert set(plan["chosen_method"].values()) <= set(METHODS) - {"auto"}
        (clause,) = plan["clauses"]
        assert clause["role"] == "target"
        assert set(clause["terms"]) == {"query", "evaluation"}
        for (term_info,) in clause["terms"].values():
            assert term_info["postings"] > 0
        # One schema at every topology: the partition and one shard row.
        assert plan["partition"] == {"policy": "hash", "num_shards": 1}
        (row,) = plan["shards"]
        assert row["local_method"] == plan["chosen_method"]
        assert row["clauses"][0]["terms"] == {
            term: rows[0] for term, rows in clause["terms"].items()}

    def test_explain_reports_missing_segments(self, engine):
        plan = self.explain(engine, '//sec[about(., query)]')
        assert plan["clauses"][0]["terms"]["query"][0]["rpl"] is None

    def test_explain_sees_materialized_segments(self, engine):
        engine.build_segments([BuildTarget("rpl", "query")])
        plan = self.explain(engine, '//sec[about(., query)]')
        assert plan["clauses"][0]["terms"]["query"][0]["rpl"] is not None

    def test_explain_does_not_charge(self, engine):
        before = engine.cost_model.total_cost
        self.explain(engine, '//sec[about(., query evaluation)]')
        assert engine.cost_model.total_cost == before

    def test_explain_includes_comparisons(self, engine):
        plan = self.explain(engine, '//sec[about(., query) and .//yr > 2000]')
        assert plan["comparisons"] == [".//yr > 2000"]


class TestPhrasesFilterBeforeTheCut:
    """``require_phrases`` is part of the ERA contract at every k: every
    strategy answers ERA's phrase-filtered answers, cut at k — a clause
    must not stop at k before the filter has seen its answers, and flat
    mode filters too."""

    QUERY = '//bdy//*[about(., "model checking" state space)]'

    @pytest.fixture(scope="class")
    def collection(self):
        return SyntheticIEEECorpus(num_docs=60, seed=1).build()

    @pytest.fixture(scope="class")
    def engines(self, collection):
        alias = AliasMapping.inex_ieee()
        return {
            "single": TrexEngine(collection,
                                 IncomingSummary(collection, alias=alias)),
            "sharded": ShardedEngine(collection, 2, alias=alias),
        }

    @staticmethod
    def keys(hits):
        # Strategies sum term scores in their own order: equal to 9 places.
        return [(hit.element_key(), round(hit.score, 9)) for hit in hits]

    @pytest.mark.parametrize("topology", ["single", "sharded"])
    @pytest.mark.parametrize("mode", ["nexi", "flat"])
    @pytest.mark.parametrize("k", [1, 3, 10, None])
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_era_filtered_then_cut(self, engines, topology, mode, k,
                                          method):
        oracle = engines["single"]
        translated = oracle.translate(self.QUERY)
        everything = oracle.evaluate(self.QUERY, method="era", mode=mode)
        filtered = oracle._filter_phrases(translated, everything.hits)
        assert 0 < len(filtered) < len(everything.hits)
        got = engines[topology].evaluate(self.QUERY, k=k, method=method,
                                         mode=mode, require_phrases=True)
        assert self.keys(got.hits) == self.keys(filtered[:k])
