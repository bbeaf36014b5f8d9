"""Pinned WAND counterexamples: the shallow bound must cover the head row.

The cursor's head row has already left its ``_ErplSidStream``; when it
was the last row of its block (or sid) the stream's header probe speaks
only for *later* blocks — or says "nothing left" — so ``shallow`` has
to add the head's own exact score, or the pivot loop leaps a live
element.  Both cases below fail without that.
"""

import random

from repro.bench import PAPER_QUERIES
from repro.corpus import AliasMapping, Collection, SyntheticIEEECorpus, XMLParser
from repro.index import IndexCatalog, RplEntry
from repro.retrieval import ErplIterator, TrexEngine
from repro.shard import ShardedEngine
from repro.storage import free_cost_model
from repro.summary import IncomingSummary


def _cursor(scores, block_size):
    """One sid, one row per document, *block_size* rows per block."""
    catalog = IndexCatalog(cost_model=free_cost_model(),
                           block_size=block_size)
    entries = [RplEntry(score, 1, docid, 10, 5)
               for docid, score in enumerate(scores)]
    segment = catalog.add_erpl_segment("term", entries)
    return ErplIterator(catalog, segment, sids={1})


class TestShallowCoversTheHead:
    def test_head_is_last_row_of_its_block(self):
        # Blocks [0.1, 0.9] [0.2, 0.3]: after skip_to the head is the
        # 0.9 row, the last of block 0; the stream now probes block 1.
        cursor = _cursor([0.1, 0.9, 0.2, 0.3], block_size=2)
        cursor.skip_to((1, 0))
        head = cursor.current
        assert head.score == 0.9
        bound, _boundary = cursor.shallow(cursor.current_position)
        assert bound >= head.score

    def test_head_is_last_row_of_its_sid(self):
        cursor = _cursor([0.1, 0.2, 0.3, 0.9], block_size=2)
        cursor.skip_to((3, 0))
        head = cursor.current
        assert head.score == 0.9
        bound, boundary = cursor.shallow(cursor.current_position)
        assert bound >= head.score
        assert boundary is None  # nothing follows the head

    def test_head_below_the_key_does_not_count(self):
        cursor = _cursor([0.9, 0.1, 0.2, 0.3], block_size=2)
        assert cursor.current.score == 0.9
        bound, _boundary = cursor.shallow((2, 0))
        assert bound == 0.3  # block 1's header alone


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
    for k in (30, 100):
        era = shard.evaluate(nexi, k=k, method="era", mode="flat")
        wand = shard.evaluate(nexi, k=k, method="wand", mode="flat")
        assert [(hit.element_key(), round(hit.score, 9))
                for hit in wand.hits] == \
            [(hit.element_key(), round(hit.score, 9)) for hit in era.hits]
        assert (113, 1228) in {hit.element_key() for hit in era.hits}
