"""The layout-compiled block encoder against the per-entry loop it replaced.

``BlockCodec.encode_block`` runs one loop generated for its codec's
layout; ``encoder_reference.encode_block_reference`` is the interpretive
loop, kept as the oracle.  On generated blocks of the four production
layouts (posting fragments, Elements, RPL, ERPL) and of a layout with
string and list payload fields:

* both return equal ``(header, payload)`` and ``decode_columns`` reads
  the entries back;
* on malformed blocks — empty, an entry of the wrong width, a key
  component that is not an int or is negative, keys out of order, a
  payload the field's codec rejects — both raise ``CodecError`` with
  the same message.

Keys reach 2**70 (beyond the 64-bit columns) and include ``bool``s,
which the key check has always admitted as ints.
"""

import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.index.elements import BlockedElements
from repro.index.postings import BlockedPostings
from repro.index.rpl import erpl_block_codec, rpl_block_codec
from repro.storage import BlockCodec, FloatCodec, ListCodec, StringCodec, UIntCodec

from .encoder_reference import encode_block_reference

#: CI's wallclock-smoke job raises this (see .github/workflows/ci.yml).
EXAMPLES = int(os.environ.get("REPRO_CODEC_EXAMPLES", "20"))

LAYOUTS = {
    "postings": BlockedPostings().codec,
    "elements": BlockedElements().codec,
    "rpl": rpl_block_codec(),
    "erpl": erpl_block_codec(),
    # Generic fields go through their codec's encode_into; the score is
    # read from a varint field.
    "generic": BlockCodec(key_width=2,
                          payload_codecs=(StringCodec(),
                                          ListCodec(UIntCodec()),
                                          UIntCodec()),
                          score_index=4),
}

_KEY = st.one_of(st.integers(0, 300), st.integers(0, 2**70), st.booleans())
_UINT = st.one_of(st.integers(0, 300), st.integers(0, 2**70))
_FLOAT = st.one_of(st.floats(allow_nan=False), st.integers(-10**6, 10**6))


def _field(codec):
    if type(codec) is UIntCodec:
        return _UINT
    if type(codec) is FloatCodec:
        return _FLOAT
    if type(codec) is StringCodec:
        return st.text(max_size=12)
    return st.lists(_UINT, max_size=5)


@st.composite
def blocks(draw, codec):
    """A valid block: sorted keys (duplicates allowed), any payloads,
    entries as tuples or lists."""
    keys = sorted(draw(st.lists(st.tuples(*[_KEY] * codec.key_width),
                                min_size=1, max_size=30)))
    fields = st.tuples(*[_field(payload) for payload
                         in codec.payload_codecs])
    entries = []
    for key in keys:
        entry = key + draw(fields)
        entries.append(list(entry) if draw(st.booleans()) else entry)
    return entries


def outcome(encode, codec, entries):
    try:
        return "ok", encode(codec, entries)
    except CodecError as error:
        return "error", str(error)


def compiled(codec, entries):
    return codec.encode_block(entries)


def expected_rows(codec, entries):
    """What ``decode_columns(...).rows()`` must read back: float fields
    as floats and list fields as lists, key ``bool``s as ints."""
    rows = []
    for entry in entries:
        key = tuple(int(component) for component in entry[:codec.key_width])
        payload = tuple(float(value) if type(field) is FloatCodec
                        else list(value) if type(field) is ListCodec
                        else value
                        for field, value in zip(codec.payload_codecs,
                                                entry[codec.key_width:]))
        rows.append(key + payload)
    return rows


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestSameBytes:
    @given(data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_equals_the_reference_and_round_trips(self, layout, data):
        codec = LAYOUTS[layout]
        entries = data.draw(blocks(codec))
        header, payload = codec.encode_block(entries)
        assert (header, payload) == encode_block_reference(codec, entries)
        assert (codec.decode_columns(payload, header.count).rows()
                == expected_rows(codec, entries))

    def test_empty_block_raises_the_same_error(self, layout):
        codec = LAYOUTS[layout]
        assert outcome(compiled, codec, []) == outcome(
            encode_block_reference, codec, []) == (
                "error", "cannot encode an empty block")


def _widen(codec, entry, data):
    return (*entry, 0)


def _narrow(codec, entry, data):
    return tuple(entry)[:-1]


def _key_not_int(codec, entry, data):
    column = data.draw(st.integers(0, codec.key_width - 1))
    bad = data.draw(st.sampled_from([1.0, 2.5, "7", None, b"\x01"]))
    return (*entry[:column], bad, *entry[column + 1:])


def _negative_key(codec, entry, data):
    column = data.draw(st.integers(0, codec.key_width - 1))
    bad = -data.draw(st.integers(1, 2**70))
    return (*entry[:column], bad, *entry[column + 1:])


def _bad_payload(kinds, bad_values):
    """A mutation putting one of *bad_values* in a *kinds* field, and
    the kinds it needs."""
    def mutate(codec, entry, data):
        slots = [slot for slot, field in enumerate(codec.payload_codecs)
                 if type(field) in kinds]
        column = codec.key_width + data.draw(st.sampled_from(slots))
        bad = data.draw(st.sampled_from(bad_values))
        return (*entry[:column], bad, *entry[column + 1:])
    return mutate, kinds


#: name -> (mutation, the payload codecs it needs; empty: any layout)
ENTRY_MUTATIONS = {
    "wide_entry": (_widen, ()),
    "narrow_entry": (_narrow, ()),
    "key_not_int": (_key_not_int, ()),
    "negative_key": (_negative_key, ()),
    # UIntCodec: not an int, a bool, or negative.
    "bad_uint": _bad_payload((UIntCodec,),
                             [True, False, 1.0, "3", None, -1, -2**70]),
    # FloatCodec: not an int or a float, or a bool.
    "bad_float": _bad_payload((FloatCodec,), [True, False, "1.0", None, [1.0]]),
    "bad_generic": _bad_payload((StringCodec, ListCodec), [5, None, 1.5]),
}


def _cases():
    for layout, codec in sorted(LAYOUTS.items()):
        kinds = {type(field) for field in codec.payload_codecs}
        for name, (_mutate, needs) in ENTRY_MUTATIONS.items():
            if not needs or kinds & set(needs):
                yield layout, name


class TestSameErrors:
    @pytest.mark.parametrize("layout, mutation", list(_cases()))
    @given(data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_malformed_entry_raises_the_same_error(self, layout, mutation,
                                                   data):
        codec = LAYOUTS[layout]
        entries = data.draw(blocks(codec))
        at = data.draw(st.integers(0, len(entries) - 1))
        mutate, _needs = ENTRY_MUTATIONS[mutation]
        entries[at] = mutate(codec, entries[at], data)
        want = outcome(encode_block_reference, codec, entries)
        assert want[0] == "error"
        assert outcome(compiled, codec, entries) == want

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @given(data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_keys_out_of_order_raise_the_same_error(self, layout, data):
        codec = LAYOUTS[layout]
        entries = data.draw(blocks(codec))
        kw = codec.key_width
        rising = [index for index in range(len(entries) - 1)
                  if tuple(entries[index][:kw]) < tuple(entries[index + 1][:kw])]
        assume(rising)
        at = data.draw(st.sampled_from(rising))
        entries[at], entries[at + 1] = entries[at + 1], entries[at]
        want = outcome(encode_block_reference, codec, entries)
        assert want[0] == "error" and "out of order" in want[1]
        assert outcome(compiled, codec, entries) == want
