"""Generative defence of the core contract: every strategy, on every
shard leader and on the coordinator, returns the bytes a fresh
single-engine ERA returns.

The hand-enumerated golden matrices never permute the documents, which
is how a wrong sharded-WAND top-k (a head row at a block boundary on a
gapped docid range) survived them.  This test draws the corpus seed, a
*document order*, the shard count, the partition policy, one of the
seven paper queries and k — with small blocks, so heads that are the
last row of their block are the common case rather than 1 in 128 — and
the coordinator's side of the contract: one or two replicas per shard,
flat or nexi mode, and optionally a single-shot replica fault armed on
one shard before every evaluation.  With a sibling replica a fault
never degrades the answer, and no evaluation leaves a read in flight.

Generated NEXI (``tests/nexi/test_parser_properties.py``'s
``nexi_queries``) reaches what the paper queries never do — phrases,
comparisons, disjunctions, descendant votes and support on one element
— and runs in nexi mode, on one engine and on two shards, at a k the
clauses must not be cut at unless the query is a single task.
"""

import functools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus, XMLParser)
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

from ..nexi.test_parser_properties import nexi_queries
from ..warm import warm

CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}
STRATEGIES = ("era", "ta", "merge", "wand")


def permuted_collection(kind, corpus_seed, num_docs, order_seed):
    corpus = CORPORA[kind][0](num_docs=num_docs, seed=corpus_seed)
    order = list(range(num_docs))
    random.Random(order_seed).shuffle(order)
    parser = XMLParser()
    collection = Collection(name=kind)
    for docid, source in enumerate(order):
        collection.add(parser.parse(corpus.document_xml(source), docid))
    return collection


def answer(engine, nexi, k, method, mode):
    result = engine.evaluate(nexi, k=k, method=method, mode=mode)
    return [(hit.docid, hit.end_pos, round(hit.score, 9))
            for hit in result.hits], result.stats


@given(corpus_seed=st.integers(0, 10**6), num_docs=st.integers(6, 14),
       order_seed=st.integers(0, 10**6), shards=st.integers(1, 3),
       policy=st.sampled_from(("hash", "range")),
       qid=st.sampled_from(sorted(PAPER_QUERIES)),
       k=st.integers(1, 40), block_size=st.integers(2, 8),
       replicas=st.integers(1, 2), mode=st.sampled_from(("flat", "nexi")),
       fault=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 1),
                                   st.integers(0, 3)))
# The ledger's finding (benchmarks/ledger/README.md): shard 1 dropped
# (113, 1228) from Q203 — row 128 of a 128-row block of term 'signing'.
@example(corpus_seed=42, num_docs=120, order_seed=107, shards=2,
         policy="hash", qid=203, k=30, block_size=128, replicas=1,
         mode="flat", fault=None)
@settings(max_examples=20, deadline=None)
def test_every_strategy_on_every_shard_equals_single_engine_era(
        corpus_seed, num_docs, order_seed, shards, policy, qid, k,
        block_size, replicas, mode, fault):
    query = PAPER_QUERIES[qid]
    collection = permuted_collection(query.collection, corpus_seed,
                                     num_docs, order_seed)
    alias = CORPORA[query.collection][1]()
    oracle = TrexEngine(collection, IncomingSummary(collection, alias=alias),
                        block_size=block_size)
    ranking, _ = answer(oracle, query.nexi, None, "era", mode)
    sharded = ShardedEngine.from_engine(oracle, shards, policy=policy,
                                        replicas=replicas)
    warm(sharded, query.nexi)
    for method in STRATEGIES:
        if fault is not None and replicas > 1:
            # A one-replica group has no sibling: losing its replica
            # degrades the answer by design, so faults need two.
            shard, replica, after = fault
            sharded.shards[shard % shards].group.inject_fault(replica,
                                                               after=after)
        got, stats = answer(sharded, query.nexi, k, method, mode)
        assert got == ranking[:k], method
        assert stats.degraded is False, method
        assert [row["inflight"] for shard in sharded.shards
                for row in shard.group.snapshot()["replicas"]] == \
            [0] * (shards * replicas), method
        for shard in sharded.shards:
            mine = [row for row in ranking
                    if sharded.partitioner.shard_of(row[0]) == shard.index]
            local, _ = answer(shard.engine, query.nexi, k, method, mode)
            assert local == mine[:k], (method, shard.index)


@functools.cache
def generated_engines():
    """A 30-document IEEE engine (the ERA oracle too) and its two shards;
    each example builds its query's lists on both."""
    collection = SyntheticIEEECorpus(num_docs=30, seed=42).build()
    engine = TrexEngine(collection, IncomingSummary(
        collection, alias=AliasMapping.inex_ieee()))
    return engine, ShardedEngine.from_engine(engine, 2)


def nexi_answer(engine, nexi, k, method, require_phrases):
    result = engine.evaluate(nexi, k=k, method=method,
                             require_phrases=require_phrases)
    return [(hit.docid, hit.end_pos, round(hit.score, 9))
            for hit in result.hits]


@given(nexi=nexi_queries(), k=st.sampled_from((1, 3, 10, None)),
       require_phrases=st.booleans())
# One clause whose top k is not the answer: the clause votes for
# ancestors, or a comparison filters its hits.
@example(nexi="//article[about(.//p, retrieval)]", k=1,
         require_phrases=False)
@example(nexi='//sec[about(., retrieval) and .//st = "introduction"]', k=3,
         require_phrases=False)
@settings(max_examples=10, deadline=None)
def test_generated_nexi_on_every_strategy_equals_single_engine_era(
        nexi, k, require_phrases):
    engine, sharded = generated_engines()
    for target in (engine, sharded):
        warm(target, nexi)
    want = nexi_answer(engine, nexi, k, "era", require_phrases)
    for target in (engine, sharded):
        for method in (*STRATEGIES, "auto"):
            got = nexi_answer(target, nexi, k, method, require_phrases)
            assert got == want, (type(target).__name__, method)
