"""Columnar block decode: round-trip properties and charge identity.

Two invariants anchor the columnar refactor:

* ``decode_columns(payload, n).rows()`` is byte-identical to the
  entry-at-a-time reference decoder ``decode_block_scalar`` for every
  codec layout the indexes use (RPL, ERPL, Elements, PostingLists) and
  for a layout with generic (string, list) payload fields, across
  random block shapes including single-entry blocks;
* the cost model cannot tell the views apart — a block opened through
  ``read_block_columns`` charges exactly what ``read_block`` charges
  (one BLOCK_READ + one BLOCK_DECODE of ``count`` entries on a miss, a
  PAGE_HIT otherwise), because the charge is per block opened, never
  per view.
"""

import random
from array import array

import pytest

from repro.storage import (
    BlockCodec,
    BlockSequence,
    CostModel,
    FloatCodec,
    ListCodec,
    PageCache,
    StringCodec,
    UIntCodec,
)

# ----------------------------------------------------------------------
# Entry generators for each production codec layout.
# ----------------------------------------------------------------------


def _rpl_layout():
    # (ir,) key + (score, sid, docid, endpos, length) payloads.
    return BlockCodec(key_width=1,
                      payload_codecs=(FloatCodec(), UIntCodec(), UIntCodec(),
                                      UIntCodec(), UIntCodec()),
                      score_index=1)


def _rpl_entries(rng, n):
    score = rng.uniform(5.0, 50.0)
    entries = []
    for rank in range(n):
        score -= rng.random()  # descending, possibly by tiny amounts
        entries.append((rank, score, rng.randrange(64), rng.randrange(1000),
                        rng.randrange(10_000), rng.randrange(500)))
    return entries


def _erpl_layout():
    # (sid, docid, endpos) key + (score, length) payloads.
    return BlockCodec(key_width=3,
                      payload_codecs=(FloatCodec(), UIntCodec()),
                      score_index=3)


def _erpl_entries(rng, n):
    keys = sorted((rng.randrange(8), rng.randrange(50), rng.randrange(10_000))
                  for _ in range(n))
    return [key + (rng.uniform(0.0, 10.0), rng.randrange(500))
            for key in keys]


def _elements_layout():
    # (docid, endpos) key + (length,) payload.
    return BlockCodec(key_width=2, payload_codecs=(UIntCodec(),))


def _elements_entries(rng, n):
    keys = sorted((rng.randrange(100), rng.randrange(10_000))
                  for _ in range(n))
    return [key + (rng.randrange(2000),) for key in keys]


def _postings_layout():
    # Bare (docid, offset) positions, no payload.
    return BlockCodec(key_width=2)


def _postings_entries(rng, n):
    # Duplicate keys are legal (repeated positions never occur in real
    # fragments, but the codec must not care).
    keys = sorted((rng.randrange(40), rng.randrange(5_000))
                  for _ in range(n))
    return keys


def _generic_layout():
    # No index stores one, but the codec accepts any payload codec: a
    # string and a list field between the inline varint/float kinds.
    return BlockCodec(key_width=2,
                      payload_codecs=(StringCodec(), FloatCodec(),
                                      ListCodec(UIntCodec()), UIntCodec()),
                      score_index=3)


def _generic_entries(rng, n):
    keys = sorted((rng.randrange(6), rng.randrange(300)) for _ in range(n))
    return [key + ("".join(rng.choice("aé\u4e2dz") for _ in range(rng.randrange(4))),
                   rng.uniform(0.0, 10.0),
                   [rng.randrange(1 << 20) for _ in range(rng.randrange(4))],
                   rng.randrange(500))
            for key in keys]


LAYOUTS = {
    "generic": (_generic_layout, _generic_entries),
    "rpl": (_rpl_layout, _rpl_entries),
    "erpl": (_erpl_layout, _erpl_entries),
    "elements": (_elements_layout, _elements_entries),
    "postings": (_postings_layout, _postings_entries),
}

SIZES = (1, 2, 3, 7, 64, 257)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestColumnarRoundTrip:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_columns_match_scalar_decoder(self, layout, size, seed):
        make_codec, make_entries = LAYOUTS[layout]
        codec = make_codec()
        entries = make_entries(random.Random(seed * 1000 + size), size)
        header, payload = codec.encode_block(entries)

        want = codec.decode_block_scalar(payload, header.count)
        assert want == entries  # the oracle itself round-trips

        columns = codec.decode_columns(payload, header.count)
        assert len(columns) == header.count
        assert columns.rows() == want

    def test_empty_payload_decodes_to_no_rows(self):
        codec = _postings_layout()
        columns = codec.decode_columns(b"", 0)
        assert columns.rows() == []
        assert len(columns) == 0

    def test_columns_are_array_backed(self):
        codec = _rpl_layout()
        entries = _rpl_entries(random.Random(5), 16)
        header, payload = codec.encode_block(entries)
        columns = codec.decode_columns(payload, header.count)
        assert all(isinstance(col, array) and col.typecode == "Q"
                   for col in columns.keys)
        scores = columns.payloads[0]
        assert isinstance(scores, array) and scores.typecode == "d"
        assert all(isinstance(col, array) and col.typecode == "Q"
                   for col in columns.payloads[1:])

    def test_beyond_64bit_keys_fall_back_to_lists(self):
        # array('Q') cannot hold >= 2**64; the column silently degrades
        # to a plain list and the round trip is unaffected.
        codec = BlockCodec(key_width=1, payload_codecs=(UIntCodec(),))
        wide = 1 << 70
        entries = [(wide, wide + 3), (wide + 5, 7)]
        header, payload = codec.encode_block(entries)
        columns = codec.decode_columns(payload, header.count)
        assert isinstance(columns.keys[0], list)
        assert isinstance(columns.payloads[0], list)
        assert columns.rows() == entries
        assert codec.decode_block_scalar(payload, header.count) == entries

    def test_generic_payload_columns_stay_lists(self):
        # Non-varint/non-float payloads decode through their codec
        # inside the compiled loop and stay plain lists.
        codec = BlockCodec(key_width=1,
                           payload_codecs=(StringCodec(), UIntCodec()))
        entries = [(0, "alpha", 1), (2, "beta", 4), (2, "", 9)]
        header, payload = codec.encode_block(entries)
        columns = codec.decode_columns(payload, header.count)
        assert isinstance(columns.payloads[0], list)
        assert columns.rows() == entries
        assert codec.decode_block_scalar(payload, header.count) == entries


# ----------------------------------------------------------------------
# Charge identity: the cost model cannot distinguish the views.
# ----------------------------------------------------------------------
def _snap_tuple(model):
    snap = model.snapshot()
    return (snap.base_cost, snap.heap_cost, snap.blocks_read,
            snap.blocks_decoded, snap.blocks_skipped, snap.entries_decoded)


def _build_sequence(model, n=300, block_size=64):
    codec = _rpl_layout()
    entries = _rpl_entries(random.Random(9), n)
    return BlockSequence.build(entries, codec, block_size=block_size,
                               cost_model=model)


class TestChargeIdentity:
    def test_shim_and_columnar_reads_charge_identically(self):
        model_rows = CostModel()
        model_cols = CostModel()
        seq_rows = _build_sequence(model_rows)
        seq_cols = _build_sequence(model_cols)
        # Same access pattern through each view, including re-reads
        # (page hits) and out-of-order probes.
        pattern = [0, 1, 1, 4, 0, 2, 3, 2]
        for index in pattern:
            rows = seq_rows.read_block(index)
            columns = seq_cols.read_block_columns(index)
            assert columns.rows() == rows
            assert _snap_tuple(model_rows) == _snap_tuple(model_cols)

    def test_cold_columnar_read_charges_one_decode(self):
        model = CostModel()
        sequence = _build_sequence(model)
        snap = model.snapshot()
        sequence.read_block_columns(0)
        cold = model.since(snap)
        assert cold.blocks_read == 1
        assert cold.blocks_decoded == 1
        assert cold.entries_decoded == sequence.headers[0].count

    def test_switching_views_charges_a_hit_not_a_second_decode(self):
        model = CostModel()
        sequence = _build_sequence(model)
        sequence.read_block_columns(0)
        snap = model.snapshot()
        rows = sequence.read_block(0)  # same page, row view
        warm = model.since(snap)
        assert warm.blocks_read == 0
        assert warm.blocks_decoded == 0
        assert rows == sequence.read_block_columns(0).rows()

    def test_columns_are_memoized_per_block(self):
        model = CostModel()
        sequence = _build_sequence(model)
        first = sequence.read_block_columns(2)
        again = sequence.read_block_columns(2)
        assert again is first  # decoded once, served from the page

    def test_eviction_recharges_columnar_decode(self):
        model = CostModel()
        cache = PageCache(capacity=1, cost_model=model)
        codec = _rpl_layout()
        entries = _rpl_entries(random.Random(11), 128)
        sequence = BlockSequence.build(entries, codec, block_size=32,
                                       cost_model=model, cache=cache)
        sequence.read_block_columns(0)
        sequence.read_block_columns(1)  # evicts block 0
        snap = model.snapshot()
        sequence.read_block_columns(0)
        spent = model.since(snap)
        assert spent.blocks_decoded == 1
