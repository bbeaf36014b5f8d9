"""zlib block compression: byte determinism, the charging contract and
the twin-view page accounting it depends on."""

import pytest

from repro.errors import StorageError
from repro.index.rpl import rpl_block_codec
from repro.storage.blocks import BlockSequence
from repro.storage.cost import Charge, CostModel, free_cost_model
from repro.storage.pager import PageCache


def entries(n=300):
    return [(rank, float(n - rank), 0, rank, rank + 1, 1)
            for rank in range(n)]


def build(compression="none", cost_model=None, cache=None, n=300):
    return BlockSequence.build(entries(n), rpl_block_codec(), block_size=64,
                               cost_model=cost_model, cache=cache,
                               compression=compression)


class TestByteDeterminism:
    def test_recompressing_equals_building_compressed(self):
        flat = build("none")
        direct = build("zlib")
        assert flat.with_compression("zlib").to_bytes() == direct.to_bytes()

    def test_round_trip_restores_flat_bytes(self):
        flat = build("none")
        back = flat.with_compression("zlib").with_compression("none")
        assert back.to_bytes() == flat.to_bytes()

    def test_compression_never_changes_decoded_entries(self):
        flat = build("none")
        compressed = build("zlib")
        assert compressed.entries() == flat.entries() == entries()

    def test_headers_describe_raw_bytes_under_any_codec(self):
        # The skip directory is codec-independent: same first/last keys,
        # same max scores, same *raw* byte_len.
        assert build("zlib").headers == build("none").headers

    def test_image_tag_survives_a_round_trip(self):
        image = build("zlib").to_bytes()
        assert image[:5] == b"TRXC\x01"
        reloaded = BlockSequence.from_bytes(image, rpl_block_codec())
        assert reloaded.compression == "zlib"
        assert reloaded.to_bytes() == image

    def test_flat_image_keeps_legacy_magic(self):
        assert build("none").to_bytes()[:5] == b"TRXB\x01"

    def test_zlib_is_smaller_on_real_segments(self):
        flat = build("none")
        compressed = build("zlib")
        assert compressed.size_bytes < flat.size_bytes
        assert compressed.flat_size_bytes == flat.size_bytes


class TestWhatIfProbe:
    def test_probe_matches_actual_recompression(self):
        flat = build("none")
        compressed = build("zlib")
        assert flat.compressed_size_bytes("zlib") == compressed.size_bytes
        assert compressed.compressed_size_bytes("none") == flat.size_bytes

    def test_probe_does_not_mutate(self):
        flat = build("none")
        before = flat.to_bytes()
        flat.compressed_size_bytes("zlib")
        assert flat.compression == "none"
        assert flat.to_bytes() == before

    def test_probe_rejects_unknown_codec(self):
        with pytest.raises(StorageError, match="unknown compression"):
            build("none").compressed_size_bytes("lz77")


class TestChargingContract:
    def test_cold_open_charges_read_decompress_decode(self):
        model = CostModel()
        sequence = build("zlib", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_block_columns(0).rows()
        count = sequence.headers[0].count
        assert model.counters.blocks_read == 1
        assert model.counters.blocks_decompressed == 1
        assert model.counters.blocks_decoded == 1
        assert model.base_cost == pytest.approx(
            Charge.BLOCK_READ + Charge.BLOCK_DECOMPRESS
            + Charge.BLOCK_DECODE + Charge.ENTRY_DECODE * count)

    def test_flat_cold_open_never_pays_decompress(self):
        model = CostModel()
        sequence = build("none", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_block_columns(0).rows()
        assert model.counters.blocks_decompressed == 0

    def test_warm_open_is_a_page_hit_only(self):
        model = CostModel()
        sequence = build("zlib", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_block_columns(0).rows()
        snap = model.snapshot()
        sequence.read_block_columns(0).rows()
        delta = model.since(snap)
        assert delta.blocks_read == 0
        assert delta.blocks_decompressed == 0
        assert delta.base_cost == pytest.approx(Charge.PAGE_HIT)

    def test_read_factor_scales_the_miss_charge(self):
        model = CostModel()
        sequence = build("zlib", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_factor = 1.5
        sequence.read_block_columns(0).rows()
        count = sequence.headers[0].count
        assert model.base_cost == pytest.approx(
            Charge.BLOCK_READ * 1.5 + Charge.BLOCK_DECOMPRESS
            + Charge.BLOCK_DECODE + Charge.ENTRY_DECODE * count)

    def test_free_cost_model_stays_free_under_compression(self):
        model = free_cost_model()
        sequence = build("zlib", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_factor = 1.6
        sequence.read_block_columns(0).rows()
        sequence.read_block_columns(0).rows()
        assert model.total_cost == 0.0


class TestTwinViewAccounting:
    """Every open of one block shares one page id: a second open is a
    hit, and eviction recharges exactly once however many decoded
    copies Python still holds."""

    def test_sibling_view_is_a_hit_not_a_second_miss(self):
        model = CostModel()
        sequence = build("zlib", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_block_columns(0)
        snap = model.snapshot()
        sequence.read_block_columns(0).rows()  # the same, resident block as rows
        delta = model.since(snap)
        assert delta.blocks_read == 0
        assert delta.blocks_decompressed == 0
        assert delta.base_cost == pytest.approx(Charge.PAGE_HIT)

    def test_eviction_recharges_once_across_both_views(self):
        model = CostModel()
        sequence = build("zlib", cost_model=model,
                         cache=PageCache(cost_model=model))
        sequence.read_block_columns(0).rows()
        sequence.read_block_columns(0)
        sequence.invalidate()
        snap = model.snapshot()
        hits_before = model.counters.page_hits
        # The memoized columns come back, but the page is cold again:
        # exactly one BLOCK_READ + BLOCK_DECOMPRESS, then one hit.
        sequence.read_block_columns(0)
        sequence.read_block_columns(0).rows()
        delta = model.since(snap)
        assert delta.blocks_read == 1
        assert delta.blocks_decompressed == 1
        assert model.counters.page_hits - hits_before == 1

    def test_capacity_eviction_behaves_like_invalidate(self):
        model = CostModel()
        cache = PageCache(capacity=1, cost_model=model)
        sequence = build("zlib", cost_model=model, cache=cache)
        assert sequence.block_count >= 2
        sequence.read_block_columns(0).rows()
        sequence.read_block_columns(1)  # evicts block 0 from the pool
        snap = model.snapshot()
        sequence.read_block_columns(0)  # cold again: one miss...
        delta = model.since(snap)
        assert delta.blocks_read == 1
        assert delta.blocks_decompressed == 1
