"""Round-trip and error tests for the binary codecs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.storage import (
    BoolCodec,
    FloatCodec,
    IntCodec,
    ListCodec,
    StringCodec,
    TupleCodec,
    UIntCodec,
    encoded_size,
)
from repro.storage.table import column_codec


class TestUIntCodec:
    def test_round_trip_small(self):
        codec = UIntCodec()
        for value in [0, 1, 127, 128, 300, 2**32, 2**60]:
            assert codec.decode(codec.encode(value)) == value

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            UIntCodec().encode(-1)

    def test_non_int_rejected(self):
        with pytest.raises(CodecError):
            UIntCodec().encode("5")
        with pytest.raises(CodecError):
            UIntCodec().encode(True)

    def test_varint_compactness(self):
        codec = UIntCodec()
        assert len(codec.encode(0)) == 1
        assert len(codec.encode(127)) == 1
        assert len(codec.encode(128)) == 2

    def test_truncated_input(self):
        with pytest.raises(CodecError):
            UIntCodec().decode(b"\x80")  # continuation bit set, no next byte


class TestIntCodec:
    def test_round_trip(self):
        codec = IntCodec()
        for value in [0, -1, 1, -1000, 1000, -(2**40), 2**40]:
            assert codec.decode(codec.encode(value)) == value

    def test_out_of_range(self):
        with pytest.raises(CodecError):
            IntCodec().encode(2**80)


class TestFloatCodec:
    def test_round_trip(self):
        codec = FloatCodec()
        for value in [0.0, -1.5, 3.14159, 1e300, -1e-300]:
            assert codec.decode(codec.encode(value)) == value

    def test_nan(self):
        codec = FloatCodec()
        assert math.isnan(codec.decode(codec.encode(float("nan"))))

    def test_truncated(self):
        with pytest.raises(CodecError):
            FloatCodec().decode(b"\x00\x01")


class TestStringCodec:
    def test_round_trip(self):
        codec = StringCodec()
        for value in ["", "hello", "héllo wörld", "日本語", "a" * 10000]:
            assert codec.decode(codec.encode(value)) == value

    def test_non_str_rejected(self):
        with pytest.raises(CodecError):
            StringCodec().encode(5)


class TestComposites:
    def test_list_of_uints(self):
        codec = ListCodec(UIntCodec())
        assert codec.decode(codec.encode([1, 2, 3])) == [1, 2, 3]
        assert codec.decode(codec.encode([])) == []

    def test_tuple_heterogeneous(self):
        codec = TupleCodec([StringCodec(), UIntCodec(), FloatCodec()])
        assert codec.decode(codec.encode(("x", 7, 2.5))) == ("x", 7, 2.5)

    def test_tuple_wrong_arity(self):
        codec = TupleCodec([UIntCodec(), UIntCodec()])
        with pytest.raises(CodecError):
            codec.encode((1,))

    def test_nested_posting_entry_shape(self):
        """The paper's postingdataentry: a list of (docid, offset) pairs."""
        codec = column_codec("list[tuple[uint,uint]]")
        postings = [(0, 5), (0, 9), (3, 1)]
        assert codec.decode(codec.encode(postings)) == [(0, 5), (0, 9), (3, 1)]

    def test_trailing_bytes_detected(self):
        codec = UIntCodec()
        with pytest.raises(CodecError):
            codec.decode(codec.encode(5) + b"\x00")

    def test_unknown_type_name(self):
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            column_codec("decimal")

    def test_encoded_size(self):
        codec = UIntCodec()
        assert encoded_size(codec, [0, 127, 128]) == 1 + 1 + 2


class TestHardening:
    """Truncation and extreme-value cases for every codec."""

    def test_zigzag_negative_extremes(self):
        codec = IntCodec()
        for value in [-1, -2, -(2**31), -(2**62), 2**62, -(2**63 - 1)]:
            assert codec.decode(codec.encode(value)) == value

    def test_zigzag_interleaving(self):
        # Zig-zag maps 0,-1,1,-2,2,... to 0,1,2,3,4,... so small
        # magnitudes stay one byte regardless of sign.
        codec = IntCodec()
        assert len(codec.encode(-1)) == 1
        assert len(codec.encode(-64)) == 1
        assert len(codec.encode(-65)) == 2

    def test_64_bit_uvarints(self):
        codec = UIntCodec()
        for value in [2**63 - 1, 2**63, 2**64 - 1]:
            assert codec.decode(codec.encode(value)) == value

    def test_uvarint_shift_guard(self):
        # Ten continuation bytes exceed the 64-bit-plus-slack guard.
        with pytest.raises(CodecError):
            UIntCodec().decode(b"\xff" * 11 + b"\x01")

    def test_truncated_string(self):
        codec = StringCodec()
        encoded = codec.encode("hello world")
        with pytest.raises(CodecError):
            codec.decode(encoded[:-3])

    def test_truncated_list_mid_element(self):
        codec = ListCodec(TupleCodec([UIntCodec(), FloatCodec()]))
        encoded = codec.encode([(1, 2.0), (3, 4.0)])
        with pytest.raises(CodecError):
            codec.decode(encoded[:-4])

    def test_empty_composites(self):
        assert ListCodec(UIntCodec()).decode(
            ListCodec(UIntCodec()).encode([])) == []
        codec = ListCodec(ListCodec(FloatCodec()))
        assert codec.decode(codec.encode([[], [1.0], []])) == [[], [1.0], []]
        empty_tuple = TupleCodec([])
        assert empty_tuple.decode(empty_tuple.encode(())) == ()

    def test_empty_buffer(self):
        for codec in (UIntCodec(), IntCodec(), FloatCodec(), StringCodec()):
            with pytest.raises(CodecError):
                codec.decode(b"")


class TestPropertyRoundTrips:
    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=200, deadline=None)
    def test_uint_round_trip(self, value):
        codec = UIntCodec()
        assert codec.decode(codec.encode(value)) == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=200, deadline=None)
    def test_int_round_trip(self, value):
        codec = IntCodec()
        assert codec.decode(codec.encode(value)) == value

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_str_round_trip(self, value):
        codec = StringCodec()
        assert codec.decode(codec.encode(value)) == value

    @given(st.lists(st.tuples(st.integers(0, 2**32), st.floats(allow_nan=False, allow_infinity=False)), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_rpl_entry_list_round_trip(self, entries):
        codec = ListCodec(TupleCodec([UIntCodec(), FloatCodec()]))
        assert codec.decode(codec.encode(entries)) == entries

    @given(st.lists(st.integers(0, 2**40), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_ordering_preserved_by_concatenation_lengths(self, values):
        """Encoded size must be the sum of element sizes plus count prefix."""
        codec = ListCodec(UIntCodec())
        element_bytes = sum(len(UIntCodec().encode(v)) for v in values)
        count_bytes = len(UIntCodec().encode(len(values)))
        assert len(codec.encode(values)) == element_bytes + count_bytes


class TestCompiledLayoutNames:
    """Every layout's compiled loops carry their own source name, so a
    profile (``cProfile`` keys rows by file name) keeps layouts apart."""

    def test_two_layouts_compile_under_different_names(self):
        from repro.index.rpl import erpl_block_codec, rpl_block_codec

        rpl, erpl = rpl_block_codec(), erpl_block_codec()
        for loop in ("_decoder", "_encoder"):
            names = {getattr(codec, loop).__code__.co_filename
                     for codec in (rpl, erpl)}
            assert len(names) == 2, names
        assert rpl._decoder.__code__.co_filename == (
            "<repro codec decode 1fuuuu>")
        assert erpl._encoder.__code__.co_filename == (
            "<repro codec encode 3fu score 3>")
