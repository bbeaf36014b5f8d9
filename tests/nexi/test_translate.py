"""Tests for the translation phase (query → sids and terms), and for
the memo a summary keeps of its translations.

``REPRO_TRANSLATE_EXAMPLES`` raises the memo property's example count
(CI uses 300).
"""

import os
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import AliasMapping, Collection, Tokenizer, parse_document
from repro.errors import NexiSyntaxError
from repro.nexi import parse_nexi, translate_query
from repro.nexi import translate as nexi_translate
from repro.retrieval import TrexEngine
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardedEngine
from repro.storage.cost import CostCounters
from repro.summary import IncomingSummary

from tests.warm import warm

EXAMPLES = int(os.environ.get("REPRO_TRANSLATE_EXAMPLES", "25"))


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


@pytest.fixture()
def summary():
    collection = build_collection(
        "<books><journal><article>"
        "<fm><abs>xml retrieval</abs></fm>"
        "<bdy><sec><p>query evaluation</p></sec>"
        "<sec><ss1><p>xml indexes</p></ss1></sec></bdy>"
        "</article></journal></books>")
    return IncomingSummary(collection, alias=AliasMapping.inex_ieee())


class TestTranslateExample11:
    """Paper §3.1 translation of Example 1.1."""

    QUERY = "//article[about(., XML)]//sec[about(., query evaluation)]"

    def test_two_clauses(self, summary):
        translated = translate_query(parse_nexi(self.QUERY), summary)
        assert len(translated.clauses) == 2

    def test_article_clause(self, summary):
        translated = translate_query(parse_nexi(self.QUERY), summary)
        article_clause = translated.clauses[0]
        assert article_clause.terms == ("xml",)
        assert len(article_clause.sids) == 1
        assert summary.label(next(iter(article_clause.sids))) == "article"
        assert not article_clause.is_target

    def test_sec_clause_is_target(self, summary):
        translated = translate_query(parse_nexi(self.QUERY), summary)
        sec_clause = translated.clauses[1]
        assert set(sec_clause.terms) == {"evaluation", "query"}
        assert sec_clause.is_target
        for sid in sec_clause.sids:
            assert summary.label(sid) == "sec"
        # both sec and the folded ss1 paths
        assert len(sec_clause.sids) == 2

    def test_target_sids_equal_last_clause_sids(self, summary):
        translated = translate_query(parse_nexi(self.QUERY), summary)
        assert translated.target_sids == translated.clauses[1].sids

    def test_table1_style_counts(self, summary):
        translated = translate_query(parse_nexi(self.QUERY), summary)
        assert translated.num_sids == 3  # 1 article + 2 sec
        assert translated.num_terms == 3  # xml, query, evaluation


class TestKeywordHandling:
    def test_stopwords_dropped_from_terms(self, summary):
        translated = translate_query(
            parse_nexi("//sec[about(., the query of evaluation)]"), summary)
        assert set(translated.clauses[0].terms) == {"query", "evaluation"}

    def test_minus_terms_excluded_but_recorded(self, summary):
        translated = translate_query(
            parse_nexi("//sec[about(., query -evaluation)]"), summary)
        clause = translated.clauses[0]
        assert clause.terms == ("query",)
        assert clause.excluded_terms == ("evaluation",)
        assert translated.num_terms == 2  # Table 1 counts both

    def test_plus_terms_weighted(self, summary):
        translated = translate_query(
            parse_nexi("//sec[about(., +query evaluation)]"), summary)
        clause = translated.clauses[0]
        assert clause.weight_of("query") == 2.0
        assert clause.weight_of("evaluation") == 1.0
        assert clause.weight_of("absent") == 0.0

    def test_phrase_contributes_words(self, summary):
        translated = translate_query(
            parse_nexi('//sec[about(., "query evaluation")]'), summary)
        assert set(translated.clauses[0].terms) == {"query", "evaluation"}

    def test_duplicate_terms_deduplicated(self, summary):
        translated = translate_query(
            parse_nexi("//sec[about(., query query)]"), summary)
        assert translated.clauses[0].terms == ("query",)


class TestVagueVsStrict:
    def test_vague_accepts_synonym_tag(self, summary):
        vague = translate_query(parse_nexi("//article//ss1[about(., xml)]"),
                                summary, vague=True)
        strict = translate_query(parse_nexi("//article//ss1[about(., xml)]"),
                                 summary, vague=False)
        assert len(vague.clauses[0].sids) == 2  # ss1 → sec
        assert len(strict.clauses[0].sids) == 0

    def test_relative_path_clause(self, summary):
        translated = translate_query(
            parse_nexi("//article[about(.//sec, query)]"), summary)
        clause = translated.clauses[0]
        assert not clause.is_target  # attached to .//sec, not '.'
        for sid in clause.sids:
            assert summary.label(sid) == "sec"

    def test_support_and_target_partition(self, summary):
        translated = translate_query(parse_nexi(
            "//article[about(., xml)]//sec[about(., query)]"), summary)
        assert len(translated.support_clauses) == 1
        assert len(translated.target_clauses) == 1


# ----------------------------------------------------------------------
# The translation memo
# ----------------------------------------------------------------------
MEMO_DOCS = (
    "<a><sec>xml retrieval systems</sec></a>",
    "<a><sec>xml databases and storage</sec></a>",
    "<a><sec>retrieval models ranking</sec></a>",
    "<a><sec>storage engines btree pages</sec></a>",
)
#: Adds the incoming path a/b/sec, which no document had.
NEW_PATH_DOC = "<a><b><sec>xml under a new path</sec></b></a>"
SEC_QUERY = "//sec[about(., xml)]"
MEMO_TEXTS = (
    SEC_QUERY,
    "//a[about(., retrieval)]",
    "//a//sec[about(., storage)]",
    "//a[about(., xml)]//sec[about(., retrieval)]",
    "//*[about(., pages)]",
    "//sec[about(., xml -retrieval)]",
)


def memo_engine(*texts):
    tokenizer = Tokenizer(stopwords=())
    collection = Collection.from_documents(
        parse_document(text, docid, tokenizer=tokenizer)
        for docid, text in enumerate(texts or MEMO_DOCS))
    return TrexEngine(collection, IncomingSummary(collection),
                      tokenizer=tokenizer)


def explained_sids(explanation):
    """The target clause's sids: globally, then per shard."""
    return (explanation["clauses"][0]["sids"],
            [shard["clauses"][0]["sids"] for shard in explanation["shards"]])


def test_a_new_path_reaches_the_engine_translation():
    engine = memo_engine()
    before = engine.translate(SEC_QUERY)
    assert engine.translate(SEC_QUERY) is before
    engine.add_document(NEW_PATH_DOC)
    after = engine.translate(SEC_QUERY)
    assert after.target_sids > before.target_sids
    assert after == translate_query(parse_nexi(SEC_QUERY), engine.summary,
                                    engine.tokenizer)


@pytest.mark.parametrize("num_shards", [1, 2])
def test_a_new_path_reaches_the_coordinator_and_explain(num_shards):
    coordinator = ShardedEngine.from_engine(memo_engine(), num_shards)
    before = coordinator.translate(SEC_QUERY)
    sids_before, _ = explained_sids(coordinator.explain(SEC_QUERY))
    document = coordinator.add_document(NEW_PATH_DOC)
    owner = coordinator.partitioner.shard_of(document.docid)
    after = coordinator.translate(SEC_QUERY)
    assert after.source.target_sids > before.source.target_sids
    assert (after.per_shard[owner].target_sids
            > before.per_shard[owner].target_sids)
    (new_sid,) = after.source.target_sids - before.source.target_sids
    sids, per_shard = explained_sids(coordinator.explain(SEC_QUERY))
    assert sids == sorted(after.source.target_sids)
    assert new_sid in sids and new_sid not in sids_before
    assert per_shard[owner] == sorted(after.per_shard[owner].target_sids)


def test_a_summary_made_by_over_starts_with_an_empty_memo():
    engine = memo_engine()
    engine.translate(SEC_QUERY)
    assert engine.summary.translations
    fresh = engine.summary.over(engine.collection)
    assert fresh.translations == {}
    assert fresh.translations is not engine.summary.translations


def test_the_memo_never_grows_past_its_bound():
    engine = memo_engine()
    memo = engine.summary.translations
    capacity = nexi_translate.MEMO_CAPACITY
    for index in range(capacity):
        engine.translate(f"//sec[about(., term{index})]")
    assert len(memo) == capacity
    engine.translate("//sec[about(., one more)]")
    assert len(memo) == 1


def test_concurrent_misses_keep_the_bound():
    """Eight threads missing at once, with a tiny switch interval: a
    store never leaves the memo past its bound."""
    engine = memo_engine()
    memo = engine.summary.translations
    over_bound = []

    def worker(offset):
        for index in range(200):
            engine.translate(f"//sec[about(., t{offset} t{index % 50})]")
            if len(memo) > 3:
                over_bound.append(len(memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(nexi_translate, "MEMO_CAPACITY", 3):
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert over_bound == []
    assert len(memo) <= 3


@settings(max_examples=EXAMPLES, deadline=None)
@given(requests=st.lists(st.tuples(st.sampled_from(MEMO_TEXTS),
                                   st.booleans()), max_size=30),
       capacity=st.integers(min_value=1, max_value=4))
def test_memoized_translations_equal_fresh_ones(requests, capacity):
    engine = memo_engine()
    memo = engine.summary.translations
    with mock.patch.object(nexi_translate, "MEMO_CAPACITY", capacity):
        for text, vague in requests:
            translated = engine.translate(text, vague=vague)
            assert len(memo) <= capacity
            assert memo[text, vague, engine.tokenizer] is translated
            assert translated == translate_query(
                parse_nexi(text), engine.summary, engine.tokenizer,
                vague=vague)


@pytest.mark.parametrize("num_shards", [None, 1, 2])
def test_a_bad_text_raises_every_time(num_shards):
    engine = memo_engine()
    translator = (engine if num_shards is None
                  else ShardedEngine.from_engine(engine, num_shards))
    for _ in range(3):
        with pytest.raises(NexiSyntaxError):
            translator.translate("//sec[about(., xml")
    assert engine.summary.translations == {}


@pytest.mark.parametrize("num_shards", [None, 1, 2])
def test_translation_is_uncharged(num_shards):
    engine = memo_engine()
    translator = (engine if num_shards is None
                  else ShardedEngine.from_engine(engine, num_shards))
    for text in (*MEMO_TEXTS, *MEMO_TEXTS):  # misses, then hits
        before = translator.cost_model.snapshot()
        translator.translate(text)
        spent = translator.cost_model.since(before)
        assert spent.counters == CostCounters()
        assert spent.total_cost == 0.0


def test_auto_reads_the_catalog_at_one_epoch():
    """The memo holds translations, never a method: a warm-up that
    leaves the epoch alone still turns a served ``auto`` from ERA to
    Merge."""
    config = ServiceConfig(workers=1, cache_capacity=0,
                           autopilot_interval=None)
    with QueryService(memo_engine(), config) as service:
        assert service.search(SEC_QUERY, method="auto")["method"] == "era"
        epoch = service.engine.epoch
        with service.lock.write():
            warm(service.engine, SEC_QUERY, ("erpl",))
        assert service.engine.epoch == epoch
        payload = service.search(SEC_QUERY, method="auto")
        assert payload["method"] == "merge"
        assert payload["epoch"] == epoch
