"""Generative defence of the core contract: every strategy, on every
shard leader and on the coordinator, returns the bytes a fresh
single-engine ERA returns.

The hand-enumerated golden matrices never permute the documents, which
is how a wrong sharded-WAND top-k (a head row at a block boundary on a
gapped docid range) survived them.  This test draws the corpus seed, a
*document order*, the shard count, the partition policy, one of the
seven paper queries and k — with small blocks, so heads that are the
last row of their block are the common case rather than 1 in 128.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus, XMLParser)
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

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


def answer(engine, nexi, k, method):
    result = engine.evaluate(nexi, k=k, method=method, mode="flat")
    return [(hit.docid, hit.end_pos, round(hit.score, 9))
            for hit in result.hits]


@given(corpus_seed=st.integers(0, 10**6), num_docs=st.integers(6, 14),
       order_seed=st.integers(0, 10**6), shards=st.integers(1, 3),
       policy=st.sampled_from(("hash", "range")),
       qid=st.sampled_from(sorted(PAPER_QUERIES)),
       k=st.integers(1, 40), block_size=st.integers(2, 8))
# The ledger's finding (benchmarks/ledger/README.md): shard 1 dropped
# (113, 1228) from Q203 — row 128 of a 128-row block of term 'signing'.
@example(corpus_seed=42, num_docs=120, order_seed=107, shards=2,
         policy="hash", qid=203, k=30, block_size=128)
@settings(max_examples=20, deadline=None)
def test_every_strategy_on_every_shard_equals_single_engine_era(
        corpus_seed, num_docs, order_seed, shards, policy, qid, k,
        block_size):
    query = PAPER_QUERIES[qid]
    collection = permuted_collection(query.collection, corpus_seed,
                                     num_docs, order_seed)
    alias = CORPORA[query.collection][1]()
    oracle = TrexEngine(collection, IncomingSummary(collection, alias=alias),
                        block_size=block_size)
    ranking = answer(oracle, query.nexi, None, "era")
    sharded = ShardedEngine.from_engine(oracle, shards, policy=policy)
    for method in STRATEGIES:
        assert answer(sharded, query.nexi, k, method) == ranking[:k], method
        for shard in sharded.shards:
            mine = [row for row in ranking
                    if sharded.partitioner.shard_of(row[0]) == shard.index]
            assert answer(shard.engine, query.nexi, k, method) == mine[:k], \
                (method, shard.index)
