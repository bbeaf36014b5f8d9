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
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
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

    # ------------------------------------------------------------------
    def encode_block(self, entries: Sequence[tuple]) -> tuple[BlockHeader, bytes]:
        """Encode *entries* → ``(header, payload_bytes)``."""
        if not entries:
            raise CodecError("cannot encode an empty block")
        out = bytearray()
        kw = self.key_width
        previous: tuple[int, ...] | None = None
        max_score = 0.0
        for entry in entries:
            if len(entry) != self._width:
                raise CodecError(
                    f"expected entry of {self._width} fields, got {entry!r}")
            key = tuple(entry[:kw])
            for component in key:
                if not isinstance(component, int) or component < 0:
                    raise CodecError(
                        f"block keys must be non-negative ints, got {key!r}")
            if previous is None:
                for component in key:
                    _write_uvarint(out, component)
            else:
                if key < previous:
                    raise CodecError(
                        f"block entries out of order: {key!r} after {previous!r}")
                if kw == 1:
                    # Single-component keys need no diverge index: the
                    # (non-negative) delta alone is unambiguous.
                    _write_uvarint(out, key[0] - previous[0])
                else:
                    diverge = kw
                    for index in range(kw):
                        if key[index] != previous[index]:
                            diverge = index
                            break
                    _write_uvarint(out, diverge)
                    if diverge < kw:
                        _write_uvarint(out, key[diverge] - previous[diverge])
                        for component in key[diverge + 1:]:
                            _write_uvarint(out, component)
            previous = key
            for codec, value in zip(self.payload_codecs, entry[kw:]):
                codec.encode_into(out, value)
            if self.score_index is not None:
                score = float(entry[self.score_index])
                if score > max_score:
                    max_score = score
        header = BlockHeader(
            first_key=tuple(entries[0][:kw]),
            last_key=tuple(entries[-1][:kw]),
            max_score=max_score,
            count=len(entries),
            byte_len=len(out),
        )
        return header, bytes(out)

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
