"""Binary codecs for table rows.

The paper's tables live in BerkeleyDB, where every row has a concrete
byte representation; the *size* of the RPL/ERPL representations is what
the self-managing index advisor trades off against the disk budget
``d``.  These codecs give every row in this reproduction a concrete
binary encoding so that index sizes are measured in real bytes, and so
that tables can be persisted to and reloaded from disk files.

All integers are encoded as unsigned LEB128 varints (with zig-zag for
signed values), strings as length-prefixed UTF-8, floats as IEEE-754
doubles, and composite values as concatenations — a compact, self-
delimiting format in the spirit of what a storage engine would use.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import CodecError

__all__ = [
    "Codec",
    "UIntCodec",
    "IntCodec",
    "FloatCodec",
    "StringCodec",
    "BoolCodec",
    "ListCodec",
    "TupleCodec",
    "BlockHeader",
    "BlockColumns",
    "BlockCodec",
    "encoded_size",
]


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated uvarint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("uvarint too long")


class Codec:
    """Base interface: encode into a bytearray, decode from bytes."""

    def encode_into(self, out: bytearray, value: Any) -> None:
        raise NotImplementedError

    def decode_from(self, data: bytes, offset: int) -> tuple[Any, int]:
        raise NotImplementedError

    # Convenience wrappers -------------------------------------------------
    def encode(self, value: Any) -> bytes:
        out = bytearray()
        self.encode_into(out, value)
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        value, offset = self.decode_from(data, 0)
        if offset != len(data):
            raise CodecError(f"{len(data) - offset} trailing bytes after decode")
        return value


class UIntCodec(Codec):
    """Non-negative integers as LEB128 varints."""

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodecError(f"expected int, got {type(value).__name__}")
        _write_uvarint(out, value)

    def decode_from(self, data: bytes, offset: int) -> tuple[int, int]:
        return _read_uvarint(data, offset)


class IntCodec(Codec):
    """Signed integers, zig-zag mapped onto varints."""

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodecError(f"expected int, got {type(value).__name__}")
        zigzag = (value << 1) ^ (value >> 63) if -(1 << 63) <= value < (1 << 63) else None
        if zigzag is None:
            # Fall back to a sign-magnitude form for arbitrary precision.
            raise CodecError(f"int out of 64-bit range: {value}")
        _write_uvarint(out, zigzag & ((1 << 64) - 1))

    def decode_from(self, data: bytes, offset: int) -> tuple[int, int]:
        zigzag, offset = _read_uvarint(data, offset)
        value = (zigzag >> 1) ^ -(zigzag & 1)
        return value, offset


class FloatCodec(Codec):
    """IEEE-754 double precision, big endian."""

    _packer = struct.Struct(">d")

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CodecError(f"expected float, got {type(value).__name__}")
        out.extend(self._packer.pack(float(value)))

    def decode_from(self, data: bytes, offset: int) -> tuple[float, int]:
        end = offset + self._packer.size
        if end > len(data):
            raise CodecError("truncated float")
        return self._packer.unpack_from(data, offset)[0], end


class StringCodec(Codec):
    """Length-prefixed UTF-8."""

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, str):
            raise CodecError(f"expected str, got {type(value).__name__}")
        raw = value.encode("utf-8")
        _write_uvarint(out, len(raw))
        out.extend(raw)

    def decode_from(self, data: bytes, offset: int) -> tuple[str, int]:
        length, offset = _read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated string")
        return data[offset:end].decode("utf-8"), end


class BoolCodec(Codec):
    """Single byte 0/1."""

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, bool):
            raise CodecError(f"expected bool, got {type(value).__name__}")
        out.append(1 if value else 0)

    def decode_from(self, data: bytes, offset: int) -> tuple[bool, int]:
        if offset >= len(data):
            raise CodecError("truncated bool")
        byte = data[offset]
        if byte not in (0, 1):
            raise CodecError(f"invalid bool byte {byte}")
        return bool(byte), offset + 1


class ListCodec(Codec):
    """Count-prefixed homogeneous list of an inner codec."""

    def __init__(self, inner: Codec) -> None:
        self.inner = inner

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            raise CodecError(f"expected list, got {type(value).__name__}")
        _write_uvarint(out, len(value))
        for item in value:
            self.inner.encode_into(out, item)

    def decode_from(self, data: bytes, offset: int) -> tuple[list[Any], int]:
        count, offset = _read_uvarint(data, offset)
        items = []
        for _ in range(count):
            item, offset = self.inner.decode_from(data, offset)
            items.append(item)
        return items, offset


class TupleCodec(Codec):
    """Fixed sequence of heterogeneous fields."""

    def __init__(self, fields: Sequence[Codec]) -> None:
        self.fields = tuple(fields)

    def encode_into(self, out: bytearray, value: Any) -> None:
        if not isinstance(value, (list, tuple)) or len(value) != len(self.fields):
            raise CodecError(
                f"expected sequence of {len(self.fields)} fields, got {value!r}")
        for codec, item in zip(self.fields, value):
            codec.encode_into(out, item)

    def decode_from(self, data: bytes, offset: int) -> tuple[tuple[Any, ...], int]:
        items = []
        for codec in self.fields:
            item, offset = codec.decode_from(data, offset)
            items.append(item)
        return tuple(items), offset


class BlockColumns:
    """One decoded block as parallel columns instead of row tuples.

    ``keys`` holds ``key_width`` equal-length integer columns and
    ``payloads`` one column per payload codec.  Integer and float
    columns are ``array``-backed (typecodes ``'Q'``/``'d'``), so they
    support the buffer protocol (``memoryview(column)`` is zero-copy)
    and index access returns plain Python ints/floats — ``rows()``
    therefore reconstructs exactly the tuples the entry-at-a-time
    decoder produces.  Generic payload columns (strings, lists) stay
    plain lists.
    """

    __slots__ = ("count", "keys", "payloads")

    def __init__(self, count: int, keys: tuple, payloads: tuple) -> None:
        self.count = count
        self.keys = keys
        self.payloads = payloads

    def __len__(self) -> int:
        return self.count

    def rows(self) -> list[tuple]:
        """Materialize the row-tuple view."""
        if not self.count:
            return []
        return list(zip(*self.keys, *self.payloads))


def _uint_column(values: list[int]) -> "array | list[int]":
    """Pack non-negative ints into an ``array('Q')``; fall back to the
    plain list for (pathological) values beyond 64 bits."""
    try:
        return array("Q", values)
    except OverflowError:
        return values


def _uvarint_lines(var: str, indent: int) -> list[str]:
    """Source lines decoding one uvarint into *var* (fast path first:
    delta compression makes single-byte varints the common case)."""
    pad = " " * indent
    return [
        f"{pad}if offset >= size:",
        f"{pad}    raise CodecError('truncated uvarint')",
        f"{pad}byte = data[offset]",
        f"{pad}offset += 1",
        f"{pad}if byte < 0x80:",
        f"{pad}    {var} = byte",
        f"{pad}else:",
        f"{pad}    {var} = byte & 0x7F",
        f"{pad}    shift = 7",
        f"{pad}    while True:",
        f"{pad}        if offset >= size:",
        f"{pad}            raise CodecError('truncated uvarint')",
        f"{pad}        byte = data[offset]",
        f"{pad}        offset += 1",
        f"{pad}        {var} |= (byte & 0x7F) << shift",
        f"{pad}        if not byte & 0x80:",
        f"{pad}            break",
        f"{pad}        shift += 7",
        f"{pad}        if shift > 70:",
        f"{pad}            raise CodecError('uvarint too long')",
    ]


#: (data, count, payload codecs) -> (key column lists, payload column lists)
_DecodeFn = Any
_DECODER_CACHE: dict[tuple[int, str], _DecodeFn] = {}


def _compile_decoder(key_width: int, kinds: str) -> _DecodeFn:
    """Build a decode loop specialized to one block layout.

    Block payloads interleave per-entry fields, so the decoder is an
    inherently sequential Python loop; what a specialized loop removes
    is every per-field dispatch — the plan walk, kind tests, and append
    indirection — by unrolling the exact field sequence of the layout
    into straight-line code (the ``namedtuple`` technique).  Varints
    and floats are decoded inline; a generic payload field compiles to
    a call of its codec's ``decode_from``, taken from the *codecs*
    argument so one compiled loop serves every layout of the same shape.
    """
    cached = _DECODER_CACHE.get((key_width, kinds))
    if cached is not None:
        return cached
    lines = [
        "def _decode(data, count, codecs):",
        "    size = len(data)",
        "    offset = 0",
    ]
    for index in range(key_width):
        lines += [f"    kc{index} = []", f"    ka{index} = kc{index}.append",
                  f"    prev{index} = 0"]
    for slot, kind in enumerate(kinds):
        lines += [f"    pc{slot} = []", f"    pa{slot} = pc{slot}.append"]
        if kind == "g":
            lines.append(f"    decode{slot} = codecs[{slot}].decode_from")
    lines.append("    for entry_index in range(count):")
    lines.append("        if entry_index:")
    if key_width == 1:
        lines += _uvarint_lines("delta", 12)
        lines += ["            prev0 += delta", "            ka0(prev0)"]
        lines.append("        else:")
        lines += _uvarint_lines("prev0", 12)
        lines.append("            ka0(prev0)")
    else:
        lines += _uvarint_lines("diverge", 12)
        for diverge in range(key_width):
            guard = "if" if diverge == 0 else "elif"
            lines.append(f"            {guard} diverge == {diverge}:")
            lines += _uvarint_lines("delta", 16)
            lines.append(f"                prev{diverge} += delta")
            for index in range(diverge + 1, key_width):
                lines += _uvarint_lines(f"prev{index}", 16)
        lines += [
            f"            elif diverge != {key_width}:",
            "                raise CodecError("
            "f'corrupt block: diverge index {diverge}')",
        ]
        lines.append("        else:")
        for index in range(key_width):
            lines += _uvarint_lines(f"prev{index}", 12)
        for index in range(key_width):
            lines.append(f"        ka{index}(prev{index})")
    for slot, kind in enumerate(kinds):
        if kind == "u":
            lines += _uvarint_lines("value", 8)
            lines.append(f"        pa{slot}(value)")
        elif kind == "f":
            lines += [
                "        end = offset + 8",
                "        if end > size:",
                "            raise CodecError('truncated float')",
                f"        pa{slot}(unpack_float(data, offset)[0])",
                "        offset = end",
            ]
        else:
            lines += [f"        value, offset = decode{slot}(data, offset)",
                      f"        pa{slot}(value)"]
    lines += [
        "    if offset != size:",
        "        raise CodecError(",
        "            f'{size - offset} trailing bytes after block decode')",
        "    return [" + ", ".join(f"kc{i}" for i in range(key_width)) + "], \\",
        "        [" + ", ".join(f"pc{i}" for i in range(len(kinds))) + "]",
    ]
    namespace: dict[str, Any] = {
        "CodecError": CodecError,
        "unpack_float": FloatCodec._packer.unpack_from,
    }
    exec(compile("\n".join(lines), f"<repro codec decode {key_width}{kinds}>",
                 "exec"), namespace)  # noqa: S102 - trusted codegen
    decoder = namespace["_decode"]
    _DECODER_CACHE[(key_width, kinds)] = decoder
    return decoder


@dataclass(frozen=True)
class BlockHeader:
    """Resident metadata for one compressed block of entries.

    A sequence of headers *is* the skip directory: ``first_key`` /
    ``last_key`` let position-driven readers (ERA, Merge) leap over
    blocks that cannot contain the probe, and ``max_score`` lets
    score-driven readers (TA family) prune blocks whose best entry
    cannot beat the current heap threshold.
    """

    first_key: tuple[int, ...]
    last_key: tuple[int, ...]
    max_score: float
    count: int
    byte_len: int


def _uvarint_write_lines(var: str, indent: int) -> list[str]:
    """Source lines appending the uvarint of non-negative *var*: one-
    and two-byte paths first (delta compression makes them the common
    case), then a loop that shifts a copy, so *var* keeps its value."""
    pad = " " * indent
    return [
        f"{pad}if {var} < 0x80:",
        f"{pad}    append({var})",
        f"{pad}elif {var} < 0x4000:",
        f"{pad}    append(({var} & 0x7F) | 0x80)",
        f"{pad}    append({var} >> 7)",
        f"{pad}else:",
        f"{pad}    rest = {var}",
        f"{pad}    while rest > 0x7F:",
        f"{pad}        append((rest & 0x7F) | 0x80)",
        f"{pad}        rest >>= 7",
        f"{pad}    append(rest)",
    ]


#: (entries, payload codecs) -> (header, payload bytes)
_EncodeFn = Any
_ENCODER_CACHE: dict[tuple[int, str, int | None], _EncodeFn] = {}


def _compile_encoder(key_width: int, kinds: str,
                     score_index: int | None) -> _EncodeFn:
    """Build the encode loop specialized to one block layout — the
    mirror of :func:`_compile_decoder`.

    Each entry is unpacked into one local per field, and the field
    walk is unrolled: the key-type and order checks, the key delta
    chosen by the diverge branch (one branch per key component), the
    varints written inline and the floats through one bound ``struct``
    pack.  An exact ``int`` / ``float`` takes the inline path; any
    other value — and every generic (``g``) field — goes through its
    codec's ``encode_into``, which keeps the codec's own type checks
    and messages.  ``max_score`` is tracked in the same pass.
    """
    cache_key = (key_width, kinds, score_index)
    cached = _ENCODER_CACHE.get(cache_key)
    if cached is not None:
        return cached
    width = key_width + len(kinds)
    keys = [f"k{index}" for index in range(key_width)]
    fields = keys + [f"v{slot}" for slot in range(len(kinds))]
    key_tuple = "(" + ", ".join(keys) + ",)"
    previous = ", ".join(f"p{index}" for index in range(key_width))
    previous_tuple = f"({previous},)"
    # The score's local; an out-of-range index compiles to
    # ``entry[score_index]``, so ``encode_block`` raises ``IndexError``.
    score_field = (fields[score_index] if score_index is not None
                   and -width <= score_index < width else None)
    float_fields = {f"v{slot}" for slot, kind in enumerate(kinds)
                    if kind == "f"}

    def checked_entry(indent: int) -> list[str]:
        pad = " " * indent
        exact = " or ".join(f"type({key}) is not int" for key in keys)
        loose = " and ".join(f"isinstance({key}, int)" for key in keys)
        negative = " or ".join(f"{key} < 0" for key in keys)
        bad_key = (f"{pad}    raise CodecError(f'block keys must be "
                   f"non-negative ints, got {{{key_tuple}!r}}')")
        return [
            f"{pad}if len(entry) != {width}:",
            f"{pad}    raise CodecError(",
            f"{pad}        f'expected entry of {width} fields, got {{entry!r}}')",
            f"{pad}{', '.join(fields)}, = entry",
            f"{pad}if {exact}:",
            f"{pad}    if not ({loose}):",
            "    " + bad_key,
            f"{pad}if {negative}:",
            bad_key,
        ]

    def payload_and_score(indent: int) -> list[str]:
        pad = " " * indent
        lines: list[str] = []
        for slot, kind in enumerate(kinds):
            value = f"v{slot}"
            if kind == "u":
                lines.append(f"{pad}if type({value}) is int and {value} >= 0:")
                lines += _uvarint_write_lines(value, indent + 4)
                lines += [f"{pad}else:",
                          f"{pad}    encode{slot}(out, {value})"]
            elif kind == "f":
                lines += [f"{pad}if type({value}) is float:",
                          f"{pad}    out += pack_float({value})"]
                if value == score_field:
                    lines += [f"{pad}    if {value} > max_score:",
                              f"{pad}        max_score = {value}"]
                lines += [f"{pad}else:",
                          f"{pad}    encode{slot}(out, {value})"]
                if value == score_field:
                    lines += [f"{pad}    score = float({value})",
                              f"{pad}    if score > max_score:",
                              f"{pad}        max_score = score"]
            else:
                lines.append(f"{pad}encode{slot}(out, {value})")
        if score_index is not None and score_field not in float_fields:
            # A float field's score is tracked where it is written.
            source = (score_field if score_field is not None
                      else f"entry[{score_index}]")
            lines += [f"{pad}score = float({source})",
                      f"{pad}if score > max_score:",
                      f"{pad}    max_score = score"]
        return lines

    lines = [
        "def _encode(entries, codecs):",
        "    if not entries:",
        "        raise CodecError('cannot encode an empty block')",
        "    out = bytearray()",
        "    append = out.append",
        "    max_score = 0.0",
    ]
    lines += [f"    encode{slot} = codecs[{slot}].encode_into"
              for slot in range(len(kinds))]
    lines += ["    remaining = iter(entries)",
              "    entry = next(remaining)"]
    lines += checked_entry(4)
    for key in keys:
        lines += _uvarint_write_lines(key, 4)
    lines += payload_and_score(4)
    lines.append(f"    first_key = {key_tuple}")
    lines.append(f"    {previous}, = {key_tuple}")
    lines.append("    for entry in remaining:")
    lines += checked_entry(8)
    order_error = ("raise CodecError(f'block entries out of order: "
                   f"{{{key_tuple}!r}} after {{{previous_tuple}!r}}')")
    if key_width == 1:
        # Single-component keys need no diverge index: the
        # (non-negative) delta alone is unambiguous.
        lines += ["        if k0 < p0:",
                  f"            {order_error}",
                  "        delta = k0 - p0"]
        lines += _uvarint_write_lines("delta", 8)
    else:
        for diverge in range(key_width):
            guard = "if" if diverge == 0 else "elif"
            lines += [f"        {guard} k{diverge} != p{diverge}:",
                      f"            if k{diverge} < p{diverge}:",
                      f"                {order_error}",
                      f"            append({diverge})",
                      f"            delta = k{diverge} - p{diverge}"]
            lines += _uvarint_write_lines("delta", 12)
            for index in range(diverge + 1, key_width):
                lines += _uvarint_write_lines(f"k{index}", 12)
        lines += ["        else:", f"            append({key_width})"]
    lines += payload_and_score(8)
    lines.append(f"        {previous}, = {key_tuple}")
    lines += [
        f"    header = BlockHeader(first_key, {previous_tuple}, max_score,",
        "                         len(entries), len(out))",
        "    return header, bytes(out)",
    ]
    namespace: dict[str, Any] = {
        "BlockHeader": BlockHeader,
        "CodecError": CodecError,
        "pack_float": FloatCodec._packer.pack,
    }
    exec(compile("\n".join(lines), f"<repro codec encode {key_width}{kinds}"
                 f" score {score_index}>", "exec"),
         namespace)  # noqa: S102 - trusted codegen
    encoder = namespace["_encode"]
    _ENCODER_CACHE[cache_key] = encoder
    return encoder


class BlockCodec(Codec):
    """Packs a run of sorted flat tuples into one compressed block.

    Entries are tuples whose first ``key_width`` components are
    non-negative ints, lexicographically non-decreasing across the run;
    the remaining components are payload fields encoded by
    ``payload_codecs``.  Keys are delta-compressed: entry 0 is stored
    absolutely, each later entry stores the index ``d`` of its first
    key component that differs from its predecessor, the (positive)
    delta at ``d``, and components after ``d`` absolutely — the classic
    prefix-delta scheme for composite keys under varints.

    ``score_index`` names the entry component whose maximum becomes the
    block header's ``max_score`` (``None`` → 0.0, for score-free blocks
    such as posting fragments).
    """

    def __init__(self, key_width: int,
                 payload_codecs: Sequence[Codec] = (),
                 score_index: int | None = None) -> None:
        if key_width < 1:
            raise CodecError("key_width must be >= 1")
        self.key_width = key_width
        self.payload_codecs = tuple(payload_codecs)
        self.score_index = score_index
        self._width = key_width + len(self.payload_codecs)
        #: One letter per payload field: varints (``u``) and floats
        #: (``f``) decode inline, anything else (``g``) through its codec.
        self._kinds = "".join(
            "u" if type(codec) is UIntCodec
            else "f" if type(codec) is FloatCodec
            else "g"
            for codec in self.payload_codecs)
        self._decoder = _compile_decoder(key_width, self._kinds)
        self._encoder = _compile_encoder(key_width, self._kinds, score_index)

    # ------------------------------------------------------------------
    def encode_block(self, entries: Sequence[tuple]) -> tuple[BlockHeader, bytes]:
        """Encode *entries* → ``(header, payload_bytes)``.

        The one production encoder: a single pass over the entries by
        the loop compiled for this layout (:func:`_compile_encoder`),
        which checks each entry, writes its key delta and payload
        fields and tracks the header's ``max_score`` as it goes.
        """
        return self._encoder(entries, self.payload_codecs)

    def decode_columns(self, data: bytes, count: int) -> BlockColumns:
        """Batch-decode one block payload into parallel columns.

        The one production decoder: a single pass over the payload bytes
        by the loop compiled for this layout (varints and floats inline,
        key deltas resolved against running previous-key state, each
        field appended to its column).  Row tuples are
        ``decode_columns(...).rows()``; ``decode_block_scalar`` is the
        independent reference the tests hold this against.
        """
        keys, payloads = self._decoder(data, count, self.payload_codecs)
        return BlockColumns(
            count,
            tuple(_uint_column(column) for column in keys),
            tuple(_uint_column(column) if kind == "u"
                  else array("d", column) if kind == "f"
                  else column
                  for kind, column in zip(self._kinds, payloads)))

    def decode_block_scalar(self, data: bytes, count: int) -> list[tuple]:
        """Reference entry-at-a-time decoder.

        Kept as the oracle the columnar batch decoder is proven against
        (round-trip property tests) and as the pre-refactor baseline the
        wall-clock benchmark lane measures speedups from.  Not used on
        any query path.
        """
        kw = self.key_width
        offset = 0
        entries: list[tuple] = []
        previous: tuple[int, ...] | None = None
        for _ in range(count):
            if previous is None:
                key_parts = []
                for _ in range(kw):
                    component, offset = _read_uvarint(data, offset)
                    key_parts.append(component)
                key = tuple(key_parts)
            elif kw == 1:
                delta, offset = _read_uvarint(data, offset)
                key = (previous[0] + delta,)
            else:
                diverge, offset = _read_uvarint(data, offset)
                if diverge > kw:
                    raise CodecError(f"corrupt block: diverge index {diverge}")
                if diverge == kw:
                    key = previous
                else:
                    delta, offset = _read_uvarint(data, offset)
                    key_parts = list(previous[:diverge])
                    key_parts.append(previous[diverge] + delta)
                    for _ in range(diverge + 1, kw):
                        component, offset = _read_uvarint(data, offset)
                        key_parts.append(component)
                    key = tuple(key_parts)
            previous = key
            payload = []
            for codec in self.payload_codecs:
                value, offset = codec.decode_from(data, offset)
                payload.append(value)
            entries.append(key + tuple(payload))
        if offset != len(data):
            raise CodecError(
                f"{len(data) - offset} trailing bytes after block decode")
        return entries


def encoded_size(codec: Codec, values: Iterable[Any]) -> int:
    """Total encoded size in bytes of *values* under *codec*."""
    out = bytearray()
    for value in values:
        codec.encode_into(out, value)
    return len(out)
