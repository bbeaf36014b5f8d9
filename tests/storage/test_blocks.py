"""Tests for block compression (BlockCodec) and BlockSequence."""

import pytest

from repro.errors import CodecError, StorageError
from repro.storage import (
    BlockCodec,
    BlockSequence,
    CostModel,
    FloatCodec,
    PageCache,
    UIntCodec,
    free_cost_model,
)


def make_codec():
    return BlockCodec(key_width=2, payload_codecs=(FloatCodec(), UIntCodec()),
                      score_index=2)


def make_entries(n=10):
    return [(i // 3, i, float(n - i), i * 2) for i in range(n)]


class TestBlockCodec:
    def test_round_trip(self):
        codec = make_codec()
        entries = make_entries(10)
        header, payload = codec.encode_block(entries)
        assert codec.decode_columns(payload, header.count).rows() == entries

    def test_header_metadata(self):
        codec = make_codec()
        entries = make_entries(10)
        header, payload = codec.encode_block(entries)
        assert header.first_key == (0, 0)
        assert header.last_key == (3, 9)
        assert header.max_score == 10.0
        assert header.count == 10
        assert header.byte_len == len(payload)

    def test_score_free_blocks(self):
        codec = BlockCodec(key_width=2)
        entries = [(0, 3), (0, 7), (1, 2)]
        header, payload = codec.encode_block(entries)
        assert header.max_score == 0.0
        assert codec.decode_columns(payload, 3).rows() == entries

    def test_repeated_keys_allowed(self):
        codec = BlockCodec(key_width=1, payload_codecs=(UIntCodec(),))
        entries = [(4, 1), (4, 2), (4, 3)]
        header, payload = codec.encode_block(entries)
        assert codec.decode_columns(payload, 3).rows() == entries

    def test_delta_compression_beats_absolute(self):
        codec = BlockCodec(key_width=2)
        base = 1 << 30
        entries = [(base, base + i) for i in range(100)]
        _, payload = codec.encode_block(entries)
        # Absolute encoding would cost ~5 bytes per component; deltas of
        # 1 cost ~2 bytes per whole entry after the first.
        assert len(payload) < 100 * 5

    def test_empty_block_rejected(self):
        with pytest.raises(CodecError):
            make_codec().encode_block([])

    def test_out_of_order_rejected(self):
        codec = BlockCodec(key_width=2)
        with pytest.raises(CodecError):
            codec.encode_block([(1, 5), (1, 4)])

    def test_negative_key_rejected(self):
        codec = BlockCodec(key_width=2)
        with pytest.raises(CodecError):
            codec.encode_block([(0, -1)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(CodecError):
            make_codec().encode_block([(1, 2, 3.0)])  # missing payload field

    def test_truncated_payload_rejected(self):
        codec = make_codec()
        header, payload = codec.encode_block(make_entries(10))
        with pytest.raises(CodecError):
            codec.decode_columns(payload[:-2], header.count)

    def test_trailing_bytes_rejected(self):
        codec = make_codec()
        header, payload = codec.encode_block(make_entries(10))
        with pytest.raises(CodecError):
            codec.decode_columns(payload + b"\x00", header.count)


class TestBlockSequence:
    def build(self, n=300, block_size=64, cost_model=None):
        return BlockSequence.build(make_entries(n), make_codec(),
                                   block_size=block_size,
                                   cost_model=cost_model or free_cost_model())

    def test_build_shape(self):
        sequence = self.build(300, 64)
        assert sequence.block_count == 5
        assert sequence.entry_count == 300
        assert [h.count for h in sequence.headers] == [64, 64, 64, 64, 44]

    def test_entries_round_trip(self):
        sequence = self.build(300, 64)
        assert sequence.entries() == make_entries(300)

    @pytest.mark.parametrize("total", [256, 300])  # last block full / partial
    @pytest.mark.parametrize("where", ["head", "middle", "tail", "spread"])
    def test_merged_equals_a_build_over_all_rows(self, total, where):
        everything = make_entries(total + 40)
        picked = {"head": range(0, 40), "middle": range(130, 170),
                  "tail": range(total, total + 40),
                  "spread": range(3, total + 40, (total + 40) // 40)}[where]
        rows = [everything[i] for i in picked]
        resident = [entry for entry in everything if entry not in rows]
        sequence = BlockSequence.build(resident, make_codec(), block_size=64,
                                       cost_model=free_cost_model())
        grown = sequence.merged(rows, 64)
        fresh = BlockSequence.build(everything, make_codec(), block_size=64)
        assert grown.to_bytes() == fresh.to_bytes()
        assert sequence.entries() == resident  # the old run is untouched

    def test_merged_keeps_the_blocks_before_the_first_new_row(self):
        sequence = self.build(300, 64)
        grown = sequence.merged([(100, 300, 1.0, 600)], 64)
        assert all(kept is stored for kept, stored
                   in zip(grown._payloads[:4], sequence._payloads))
        assert [h.count for h in grown.headers] == [64, 64, 64, 64, 45]

    def test_size_bytes_smaller_than_flat(self):
        sequence = self.build(300, 64)
        # ~13 bytes per flat row is a conservative uncompressed floor
        # (two varint keys + float + varint payload).
        assert sequence.size_bytes < 300 * 13

    def test_find_first_block_ge(self):
        sequence = self.build(300, 64)
        assert sequence.find_first_block_ge((0, 0)) == 0
        # Entry (50//3, 150) sits in block 150//64 == 2.
        assert sequence.find_first_block_ge((150 // 3, 150)) == 2
        assert sequence.find_first_block_ge((10**9, 0)) == sequence.block_count

    def test_read_block_charges_once_then_hits(self):
        model = CostModel()
        sequence = BlockSequence.build(make_entries(300), make_codec(),
                                       block_size=64, cost_model=model)
        snap = model.snapshot()
        sequence.read_block(0)
        cold = model.since(snap)
        assert cold.blocks_read == 1
        assert cold.blocks_decoded == 1
        assert cold.entries_decoded == 64
        snap = model.snapshot()
        sequence.read_block(0)
        warm = model.since(snap)
        assert warm.blocks_read == 0  # resident: a cache hit, not a read
        assert warm.blocks_decoded == 0  # and no second decode charge
        assert warm.base_cost < cold.base_cost

    def test_eviction_recharges_decode(self):
        model = CostModel()
        cache = PageCache(capacity=1, cost_model=model)
        sequence = BlockSequence.build(make_entries(300), make_codec(),
                                       block_size=64, cost_model=model,
                                       cache=cache)
        sequence.read_block(0)
        sequence.read_block(1)  # evicts block 0 from the 1-page pool
        snap = model.snapshot()
        sequence.read_block(0)
        spent = model.since(snap)
        assert spent.blocks_decoded == 1  # charged again after eviction

    def test_skip_counter(self):
        model = CostModel()
        sequence = BlockSequence.build(make_entries(300), make_codec(),
                                       block_size=64, cost_model=model)
        snap = model.snapshot()
        index = sequence.find_first_block_ge((90, 270))
        spent = model.since(snap)
        assert index == 4
        assert spent.blocks_skipped == 4

    def test_save_load_round_trip(self, tmp_path):
        sequence = self.build(300, 64)
        path = tmp_path / "seq.blk"
        sequence.save(path)
        loaded = BlockSequence.load(path, make_codec(),
                                    cost_model=free_cost_model())
        assert loaded.headers == sequence.headers
        assert loaded.entries() == sequence.entries()
        assert loaded.size_bytes == sequence.size_bytes

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.blk"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(StorageError):
            BlockSequence.load(path, make_codec())

    def test_load_rejects_key_width_mismatch(self, tmp_path):
        sequence = self.build(20, 8)
        path = tmp_path / "seq.blk"
        sequence.save(path)
        with pytest.raises(StorageError):
            BlockSequence.load(path, BlockCodec(key_width=3))

    def test_load_rejects_truncation(self, tmp_path):
        sequence = self.build(20, 8)
        path = tmp_path / "seq.blk"
        sequence.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(StorageError):
            BlockSequence.load(path, make_codec())
