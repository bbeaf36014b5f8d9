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


def _cursor(scores, block_size, sid_of=lambda docid: 1):
    """One row per document (sid 1 unless *sid_of* says otherwise),
    *block_size* rows per block; the cursor reads sid 1."""
    catalog = IndexCatalog(cost_model=free_cost_model(),
                           block_size=block_size)
    entries = [RplEntry(score, sid_of(docid), docid, 10, 5)
               for docid, score in enumerate(scores)]
    segment = catalog.add_erpl_segment("term", entries)
    return ErplIterator(catalog, segment, sids={1})


def _comparisons(cursor):
    return cursor._catalog.cost_model.counters.comparisons


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


class TestShallowThroughTheBlockCover:
    """The same boundaries, read through the cached cover: it answers
    for free while its block has rows left and is withdrawn with the
    block's (or the sid's) last row."""

    def test_cover_is_withdrawn_with_the_last_row_of_its_block(self):
        # Blocks [0.9, 0.1] [0.2, 0.3] [0.8, 0.1]; the head is row 0.
        cursor = _cursor([0.9, 0.1, 0.2, 0.3, 0.8, 0.1], block_size=2)
        before = _comparisons(cursor)
        assert cursor.shallow((0, 0)) == (0.9, (1, 10))
        assert _comparisons(cursor) == before  # block 0's cover, in place
        # The head becomes the 0.1 row, the last of block 0: the stream
        # speaks for block 1 now, and walking to its header is charged.
        cursor.consume_head()
        assert cursor.current.score == 0.1
        assert cursor.shallow((1, 10)) == (0.3, (3, 10))
        assert _comparisons(cursor) == before + 1
        # Block 1 is opened for the next head: its cover, not block 0's.
        cursor.consume_head()
        assert cursor.current.score == 0.2
        assert cursor.shallow((2, 10)) == (0.3, (3, 10))
        assert _comparisons(cursor) == before + 1

    def test_cover_is_withdrawn_with_the_last_row_of_its_sid(self):
        # One block [0.1, 0.2 | 0.9, 0.9]: sid 1 ends mid-block, so the
        # cover runs past the sid — whole tail, the block's maximum.
        cursor = _cursor([0.1, 0.2, 0.9, 0.9], block_size=4,
                         sid_of=lambda docid: 1 if docid < 2 else 2)
        cursor.consume_head()
        assert cursor.current.score == 0.2  # sid 1's last row
        assert cursor.shallow((1, 10)) == (0.9, None)
        cursor.consume_head()  # finds sid 2: the stream is done
        assert cursor.exhausted
        assert cursor.shallow((1, 10)) == (0.0, None)

    def test_a_leap_into_a_later_block_brings_that_blocks_cover(self):
        cursor = _cursor([0.9, 0.1, 0.2, 0.3, 0.8, 0.1], block_size=2)
        assert cursor.shallow((0, 10))[0] == 0.9
        cursor.skip_to((4, 0))  # head: 0.8, row 0 of block 2
        assert cursor.current.score == 0.8
        before = _comparisons(cursor)
        assert cursor.shallow((4, 10)) == (0.8, (5, 10))
        assert cursor.shallow((5, 10)) == (0.8, (5, 10))  # 0.8: the block's max
        assert _comparisons(cursor) == before


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
