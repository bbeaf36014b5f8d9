"""Golden tests for the block-compressed access paths.

The refactor from row-at-a-time to block-oriented storage must be
invisible in *answers*: TA and Merge return exactly the scores and
elements the exhaustive ERA sweep computes, on the live catalog and
again after a save/load round trip — while the advisor-visible
``size_bytes`` shrinks to the compressed footprint.
"""

import pytest

from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.storage import FloatCodec, TupleCodec, UIntCodec, encoded_size
from repro.summary import IncomingSummary

QUERY = "//article//sec[about(., information retrieval)]"


@pytest.fixture(scope="module")
def engine():
    collection = SyntheticIEEECorpus(num_docs=12, seed=7).build()
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    engine = TrexEngine(collection, summary)
    engine.materialize_for_query(QUERY, kinds=("rpl", "erpl"))
    return engine


def keyed(result):
    return [(h.element_key(), h.score) for h in result.hits]


class TestGoldenTopK:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_ta_and_merge_match_era_exactly(self, engine, k):
        era = engine.evaluate(QUERY, k=k, method="era", mode="flat")
        ta = engine.evaluate(QUERY, k=k, method="ta", mode="flat")
        merge = engine.evaluate(QUERY, k=k, method="merge", mode="flat")
        # Byte-identical: same elements, same float scores, no approx().
        assert keyed(ta) == keyed(era)
        assert keyed(merge) == keyed(era)

    def test_block_counters_surface_in_stats(self, engine):
        from repro.storage import PageCache
        # A fresh buffer pool makes the next evaluation cold again.
        engine.use_page_cache(PageCache(cost_model=engine.cost_model))
        ta = engine.evaluate(QUERY, k=3, method="ta", mode="flat")
        assert ta.stats.blocks_read > 0
        assert ta.stats.rows_skipped >= 0
        assert ta.stats.blocks_read >= ta.stats.blocks_decoded


class TestPersistenceRoundTrip:
    def test_reload_preserves_topk_and_sizes(self, engine, tmp_path):
        expected_ta = engine.evaluate(QUERY, k=10, method="ta", mode="flat")
        expected_merge = engine.evaluate(QUERY, k=10, method="merge",
                                         mode="flat")
        sizes = {s.segment_id: s.size_bytes for s in engine.catalog.segments()}

        engine.save_indexes(str(tmp_path / "idx"))
        fresh = TrexEngine(engine.collection, engine.summary)
        fresh.load_indexes(str(tmp_path / "idx"))

        assert {s.segment_id: s.size_bytes
                for s in fresh.catalog.segments()} == sizes
        ta = fresh.evaluate(QUERY, k=10, method="ta", mode="flat")
        merge = fresh.evaluate(QUERY, k=10, method="merge", mode="flat")
        assert keyed(ta) == keyed(expected_ta)
        assert keyed(merge) == keyed(expected_merge)


class TestCompressedFootprint:
    def test_size_bytes_strictly_smaller_than_flat_rows(self, engine):
        # What the old row-store layout would charge: one flat tuple per
        # entry (rank key + score + sid + docid + endpos + length).
        flat_codec = TupleCodec([UIntCodec(), FloatCodec(), UIntCodec(),
                                 UIntCodec(), UIntCodec(), UIntCodec()])
        for segment in engine.catalog.segments():
            entries = engine.catalog.segment_entries(segment)
            flat_bytes = encoded_size(
                flat_codec,
                [(rank, e.score, e.sid, e.docid, e.endpos, e.length)
                 for rank, e in enumerate(entries)])
            assert segment.size_bytes < flat_bytes
            assert segment.size_bytes > 0
