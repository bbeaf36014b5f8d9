"""The golden consistency property: ERA, TA and Merge agree.

The three retrieval strategies read different physical indexes but must
compute the same ranked answers with the same scores (TA restricted to
its top-k prefix).  This is the invariant the whole system design hangs
on, so it is tested here both on targeted fixtures and property-style
across generated corpora, queries, and k values.
"""

import pytest

from repro.bench.queries import PAPER_QUERIES
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary, TagSummary

QUERIES = [
    "//article//sec[about(., introduction information retrieval)]",
    "//sec[about(., code signing verification)]",
    "//bdy//*[about(., model checking state space explosion)]",
    "//article[about(., ontologies)]",
    "//article[about(., ontologies)]//sec[about(., ontologies case study)]",
]


@pytest.fixture(scope="module")
def engine():
    collection = SyntheticIEEECorpus(num_docs=12, seed=99).build()
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    return TrexEngine(collection, summary)


def keys_and_scores(hits):
    return [(h.element_key(), round(h.score, 9)) for h in hits]


class TestStrategiesAgree:
    @pytest.mark.parametrize("query", QUERIES)
    def test_full_answers_era_vs_merge(self, engine, query):
        era = engine.evaluate(query, k=None, method="era")
        merge = engine.evaluate(query, k=None, method="merge")
        assert keys_and_scores(era.hits) == keys_and_scores(merge.hits)

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_topk_ta_matches_era_prefix(self, engine, query, k):
        era = engine.evaluate(query, k=k, method="era")
        ta = engine.evaluate(query, k=k, method="ta")
        assert keys_and_scores(ta.hits) == keys_and_scores(era.hits)

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_flat_mode_all_methods_agree(self, engine, query, k):
        """The paper's single-task evaluation (§2.2) across methods."""
        era = engine.evaluate(query, k=k, method="era", mode="flat")
        merge = engine.evaluate(query, k=k, method="merge", mode="flat")
        ta = engine.evaluate(query, k=k, method="ta", mode="flat")
        assert keys_and_scores(era.hits) == keys_and_scores(merge.hits)
        assert keys_and_scores(ta.hits) == keys_and_scores(era.hits)

    @pytest.mark.parametrize("query", QUERIES[:2])
    def test_ita_same_answers_as_ta(self, engine, query):
        """ITA is TA read at its ideal cost (heap clock paused, §5):
        the same run, so the same answers — nothing to request."""
        ta = engine.evaluate(query, k=10, method="ta")
        assert 0 < ta.stats.ideal_cost <= ta.stats.cost

    def test_scores_positive_and_sorted(self, engine):
        result = engine.evaluate(QUERIES[0], k=None, method="merge")
        scores = result.scores()
        assert all(s > 0 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_k_truncates(self, engine):
        full = engine.evaluate(QUERIES[0], k=None, method="merge")
        top3 = engine.evaluate(QUERIES[0], k=3, method="merge")
        assert len(top3.hits) == min(3, len(full.hits))
        assert keys_and_scores(top3.hits) == keys_and_scores(full.hits[:3])

    def test_wildcard_query_consistency(self, engine):
        query = "//bdy//*[about(., model checking state space explosion)]"
        era = engine.evaluate(query, k=20, method="era")
        merge = engine.evaluate(query, k=20, method="merge")
        ta = engine.evaluate(query, k=20, method="ta")
        assert keys_and_scores(era.hits) == keys_and_scores(merge.hits)
        assert keys_and_scores(ta.hits) == keys_and_scores(era.hits)


class TestUnsafeSummaryContract:
    """On a summary that is not retrieval-safe, ERA's extent sweep
    passes over an element nested inside a same-sid ancestor.  The
    stored lists are ERA's own output (paper §3.2), so TA, Merge and
    WAND still return ERA's answers — a builder that walks the document
    trees instead stores the nested elements too and breaks this."""

    @pytest.fixture(scope="class")
    def unsafe_engine(self):
        collection = SyntheticIEEECorpus(num_docs=20, seed=42).build()
        summary = TagSummary(collection, alias=AliasMapping.inex_ieee())
        assert not summary.is_retrieval_safe()
        return TrexEngine(collection, summary)

    @pytest.mark.parametrize("qid", [202, 203])
    @pytest.mark.parametrize("mode", ["nexi", "flat"])
    def test_ta_merge_wand_return_eras_answers(self, unsafe_engine, qid, mode):
        query = PAPER_QUERIES[qid].nexi
        unsafe_engine.materialize_for_query(query)
        for method, k in (("merge", None), ("ta", 10), ("wand", 10),
                          ("wand", None)):
            era = unsafe_engine.evaluate(query, k=k, method="era", mode=mode)
            got = unsafe_engine.evaluate(query, k=k, method=method, mode=mode)
            assert era.hits, (qid, mode)
            assert keys_and_scores(got.hits) == keys_and_scores(era.hits), \
                (qid, mode, method, k)
