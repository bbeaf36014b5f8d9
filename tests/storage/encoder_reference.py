"""The block encoder's independent oracle: the per-entry loop.

``BlockCodec.encode_block`` runs a loop compiled for the codec's exact
layout; this is the interpretive loop it replaced, kept verbatim so the
tests can hold the compiled one against it — same payload bytes, same
``BlockHeader``, same ``CodecError`` on the same malformed input — and
so the wall-clock bench has a baseline to measure it from.  Nothing in
``src`` calls it.
"""

from typing import Sequence

from repro.errors import CodecError
from repro.storage.serialization import BlockCodec, BlockHeader, _write_uvarint


def encode_block_reference(codec: BlockCodec,
                           entries: Sequence[tuple]) -> tuple[BlockHeader, bytes]:
    """Encode *entries* → ``(header, payload_bytes)``, one entry and one
    field at a time."""
    if not entries:
        raise CodecError("cannot encode an empty block")
    out = bytearray()
    kw = codec.key_width
    width = kw + len(codec.payload_codecs)
    previous: tuple[int, ...] | None = None
    max_score = 0.0
    for entry in entries:
        if len(entry) != width:
            raise CodecError(
                f"expected entry of {width} fields, got {entry!r}")
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
        for payload_codec, value in zip(codec.payload_codecs, entry[kw:]):
            payload_codec.encode_into(out, value)
        if codec.score_index is not None:
            score = float(entry[codec.score_index])
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
