"""A pinned WAND counterexample from the benchmark: a shard's docid gaps.

A hash partition leaves each shard with gaps in its docids; WAND's
answer on such a shard must still be ERA's.
"""

import random

from repro.bench import PAPER_QUERIES
from repro.corpus import AliasMapping, Collection, SyntheticIEEECorpus, XMLParser
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary


def test_seed_107_shard_returns_the_era_answer():
    """The ledger's finding: shard 1 of a 2-shard hash partition of the
    seed-107 document order dropped (113, 1228) from Q203 at k >= 30."""
    corpus = SyntheticIEEECorpus(num_docs=120, seed=42)
    order = list(range(corpus.num_docs))
    random.Random(107).shuffle(order)
    parser = XMLParser()
    collection = Collection(name="ieee")
    for docid, source in enumerate(order):
        collection.add(parser.parse(corpus.document_xml(source), docid))
    engine = TrexEngine(collection, IncomingSummary(
        collection, alias=AliasMapping.inex_ieee()))
    shard = ShardedEngine.from_engine(engine, 2).shards[1].engine
    nexi = PAPER_QUERIES[203].nexi
    shard.materialize_for_query(nexi, ("erpl",))
    for k in (30, 100):
        era = shard.evaluate(nexi, k=k, method="era", mode="flat")
        wand = shard.evaluate(nexi, k=k, method="wand", mode="flat")
        assert [(hit.element_key(), round(hit.score, 9))
                for hit in wand.hits] == \
            [(hit.element_key(), round(hit.score, 9)) for hit in era.hits]
        assert (113, 1228) in {hit.element_key() for hit in era.hits}
