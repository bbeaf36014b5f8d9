"""Block sequences: the compressed, skip-indexed segment representation.

A :class:`BlockSequence` stores a sorted run of entries as a list of
delta+varint compressed blocks (:class:`~repro.storage.serialization.
BlockCodec`) plus a *resident skip directory* — the per-block
:class:`~repro.storage.serialization.BlockHeader` list.  Readers consult
headers for free (they live in memory, like the paper's BerkeleyDB
internal pages), pay ``block_read`` + ``block_decode`` only for blocks
they actually open, and record a ``block_skip`` for every block the
directory let them leap over.

Decoded blocks are memoized per sequence; whether a re-visit is charged
is decided by the shared :class:`~repro.storage.pager.PageCache`, so a
block evicted from the simulated buffer pool costs a fresh block read
even though Python still holds the decoded entries.

Two storage-variant axes thread through here (see ``repro.backend``):

* **compression** — block payloads may be stored zlib-deflated.  The
  skip directory, block boundaries and decoded entries are identical
  either way (headers always describe the *raw* payload), so query
  results cannot depend on the codec; what changes is ``size_bytes``
  and an extra ``BLOCK_DECOMPRESS`` charge per cold block open;
* **backend charge scaling** — :attr:`read_factor` scales the
  ``BLOCK_READ`` charge per cold open for the backend a sequence lives
  in (sqlite row fetch vs pager read vs mmap fault).
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left

from ..backend.atomic import atomic_write_bytes
from ..backend.compression import COMPRESSIONS, check_compression
from ..backend.compression import compress as _compress
from ..backend.compression import decompress as _decompress
from ..errors import CodecError, StorageCorruptionError, StorageError
from .cost import CostModel, GLOBAL_COST_MODEL
from .pager import PageCache
from .serialization import (
    BlockCodec,
    BlockColumns,
    BlockHeader,
    _read_uvarint,
    _write_uvarint,
)

__all__ = ["BlockSequence", "DEFAULT_BLOCK_SIZE"]

#: Entries per block; ~128 balances decode amortization against skip
#: granularity, the usual choice in block-compressed inverted files.
DEFAULT_BLOCK_SIZE = 128

#: Flat (uncompressed) images keep the historical magic so pre-backend
#: ``.blk`` files load unchanged and flat saves stay byte-identical.
_MAGIC = b"TRXB\x01"
#: Compressed images are self-describing: the codec tag rides in the
#: image, which is what lets replica-shipped segment images carry it.
_MAGIC_COMPRESSED = b"TRXC\x01"
_FLOAT = struct.Struct(">d")

#: Block page ids live far above any B+-tree node id so that sharing a
#: PageCache between trees and block sequences never aliases.
_BLOCK_PAGE_BASE = 1 << 40
_next_block_page = _BLOCK_PAGE_BASE


def _allocate_block_pages(count: int) -> int:
    global _next_block_page
    base = _next_block_page
    _next_block_page += count
    return base


def _header_size(header: BlockHeader) -> int:
    out = bytearray()
    for component in header.first_key:
        _write_uvarint(out, component)
    for component in header.last_key:
        _write_uvarint(out, component)
    _write_uvarint(out, header.count)
    _write_uvarint(out, header.byte_len)
    return len(out) + _FLOAT.size


def _pack(codec: BlockCodec, entries: list, block_size: int,
          compression: str) -> tuple[list[BlockHeader], list[bytes]]:
    """Encode sorted *entries*, ``block_size`` to a block."""
    if block_size < 1:
        raise StorageError("block size must be >= 1")
    headers: list[BlockHeader] = []
    payloads: list[bytes] = []
    for start in range(0, len(entries), block_size):
        header, payload = codec.encode_block(entries[start:start + block_size])
        headers.append(header)
        payloads.append(_compress(compression, payload))
    return headers, payloads


class BlockSequence:
    """A sorted entry run stored as compressed blocks + skip directory."""

    def __init__(self, codec: BlockCodec,
                 headers: list[BlockHeader] | None = None,
                 payloads: list[bytes] | None = None,
                 cost_model: CostModel | None = None,
                 cache: PageCache | None = None,
                 compression: str = "none") -> None:
        self.codec = codec
        self.headers: list[BlockHeader] = headers or []
        #: Stored payload bytes — compressed when :attr:`compression`
        #: says so; ``headers[i].byte_len`` always describes the raw form.
        self._payloads: list[bytes] = payloads or []
        if len(self.headers) != len(self._payloads):
            raise StorageError("block headers and payloads out of step")
        self.compression = check_compression(compression)
        self.cost_model = (cost_model if cost_model is not None
                           else GLOBAL_COST_MODEL)
        self._cache = (cache if cache is not None
                       else PageCache(cost_model=self.cost_model))
        #: ``BLOCK_READ`` multiplier of the backend this sequence lives
        #: in; the catalog stamps it when it adopts a sequence.
        self.read_factor = 1.0
        #: Where the bytes came from and which segment they belong to —
        #: corruption errors carry both.
        self.source = "<memory>"
        self.sequence_id: int | None = None
        self._decoded: dict[int, list[tuple]] = {}
        self._columns: dict[int, BlockColumns] = {}
        self._raw: dict[int, bytes] = {}
        self._page_base = _allocate_block_pages(max(len(self.headers), 1))
        self._header_bytes = sum(_header_size(h) for h in self.headers)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, entries: list, codec: BlockCodec,
              block_size: int = DEFAULT_BLOCK_SIZE,
              cost_model: CostModel | None = None,
              cache: PageCache | None = None,
              compression: str = "none") -> "BlockSequence":
        """Pack sorted *entries* into blocks of ``block_size`` entries."""
        check_compression(compression)
        headers, payloads = _pack(codec, list(entries), block_size,
                                  compression)
        return cls(codec, headers, payloads, cost_model=cost_model,
                   cache=cache, compression=compression)

    def merged(self, rows: list, block_size: int) -> "BlockSequence":
        """This run with sorted *rows* folded in, as a fresh sequence
        (maintenance path, uncharged).  Blocks that end before the first
        new row are kept as stored — all but the last, the only one that
        may hold fewer than ``block_size`` entries; the blocks from
        there on are decoded, merged and re-cut.  So the result is what
        :meth:`build` over all the rows encodes, byte for byte, at the
        cost of the tail, which is all that ingesting a new highest
        docid touches."""
        keep = bisect_left(self.headers, rows[0][:self.codec.key_width],
                           hi=max(len(self.headers) - 1, 0),
                           key=lambda header: header.last_key)
        tail = self.entries(keep)
        tail.extend(rows)
        tail.sort()
        headers, payloads = _pack(self.codec, tail, block_size,
                                  self.compression)
        return BlockSequence(self.codec, self.headers[:keep] + headers,
                             self._payloads[:keep] + payloads,
                             cost_model=self.cost_model, cache=self._cache,
                             compression=self.compression)

    def with_compression(self, compression: str) -> "BlockSequence":
        """This run re-encoded under *compression* (``self`` if same).

        Re-encoding is deterministic (pinned zlib level, identical
        headers), so recompressing a worker-shipped image on install
        yields the same bytes on every replica.
        """
        check_compression(compression)
        if compression == self.compression:
            return self
        payloads = [_compress(compression, self._raw_payload(index))
                    for index in range(len(self.headers))]
        clone = BlockSequence(self.codec, list(self.headers), payloads,
                              cost_model=self.cost_model, cache=self._cache,
                              compression=compression)
        clone.read_factor = self.read_factor
        clone.source = self.source
        clone.sequence_id = self.sequence_id
        return clone

    def rebound(self, cost_model: CostModel,
                cache: PageCache) -> "BlockSequence":
        """This run's stored blocks as a separate sequence that charges
        *cost_model* and is resident in *cache*.  Headers and payloads
        are shared (neither is ever mutated in place); page ids and
        decode memos are the clone's own, so reading through it leaves
        this sequence's meter and buffer pool exactly as found."""
        clone = BlockSequence(self.codec, self.headers, self._payloads,
                              cost_model=cost_model, cache=cache,
                              compression=self.compression)
        clone.read_factor = self.read_factor
        clone.source = self.source
        clone.sequence_id = self.sequence_id
        return clone

    # ------------------------------------------------------------------
    @property
    def block_count(self) -> int:
        return len(self.headers)

    @property
    def entry_count(self) -> int:
        return sum(header.count for header in self.headers)

    @property
    def size_bytes(self) -> int:
        """Stored footprint: payload bytes as stored + skip directory."""
        return sum(len(payload) for payload in self._payloads) + self._header_bytes

    @property
    def flat_size_bytes(self) -> int:
        """The footprint this run would have uncompressed."""
        return sum(header.byte_len for header in self.headers) + self._header_bytes

    def compressed_size_bytes(self, compression: str) -> int:
        """The footprint this run would have under *compression*.

        Measures without mutating — the advisor's what-if probe.
        """
        check_compression(compression)
        if compression == self.compression:
            return self.size_bytes
        if compression == "none":
            return self.flat_size_bytes
        return sum(len(_compress(compression, self._raw_payload(index)))
                   for index in range(len(self.headers))) + self._header_bytes

    def use_cache(self, cache: PageCache) -> None:
        """Route block residency through a (possibly shared) cache."""
        self._cache = cache

    def invalidate(self) -> None:
        """Drop this sequence's blocks from the simulated buffer pool."""
        for index in range(len(self.headers)):
            self._cache.invalidate(self._page_base + index)

    # ------------------------------------------------------------------
    # Charged access paths
    # ------------------------------------------------------------------
    def _open_block(self, index: int) -> None:
        """Charge one block open: the *only* place open charges accrue.

        One page-cache touch (``BLOCK_READ`` scaled by the backend's
        :attr:`read_factor` on a miss, ``PAGE_HIT`` on a hit) plus, per
        miss, one ``BLOCK_DECOMPRESS`` (compressed sequences only) and
        one ``BLOCK_DECODE`` + N ``ENTRY_DECODE``.  Both the row and the
        columnar view call through here with the same page id, so which
        view the caller asked for — or how many sibling views are
        resident — never changes cost, and eviction re-charges exactly
        once however many views Python still holds.
        """
        header = self.headers[index]
        hit = self._cache.touch_block(self._page_base + index,
                                      factor=self.read_factor)
        if not hit:
            if self.compression != "none":
                self.cost_model.block_decompress()
            self.cost_model.block_decode(header.count)

    def _raw_payload(self, index: int) -> bytes:
        """Block *index*'s raw (decompressed) payload bytes, memoized."""
        if self.compression == "none":
            return self._payloads[index]
        payload = self._raw.get(index)
        if payload is None:
            payload = _decompress(self.compression, self._payloads[index],
                                  self.headers[index].byte_len,
                                  source=self.source,
                                  sequence_id=self.sequence_id)
            self._raw[index] = payload
        return payload

    def read_block_columns(self, index: int) -> BlockColumns:
        """Open block *index* as parallel columns (see :meth:`_open_block`
        for the charging contract shared with :meth:`read_block`)."""
        self._open_block(index)
        columns = self._columns.get(index)
        if columns is None:
            columns = self.codec.decode_columns(self._raw_payload(index),
                                                self.headers[index].count)
            self._columns[index] = columns
        return columns

    def read_block(self, index: int) -> list[tuple]:
        """Open block *index* as row tuples: shim over the columnar read."""
        entries = self._decoded.get(index)
        if entries is not None:
            # Still touch the (possibly shared) buffer pool: residency
            # is decided by the cache, not by Python-side memoization.
            self._open_block(index)
            return entries
        entries = self.read_block_columns(index).rows()
        self._decoded[index] = entries
        return entries

    def find_first_block_ge(self, key: tuple, start: int = 0) -> int:
        """Smallest block index ≥ *start* whose ``last_key`` ≥ *key*.

        Returns ``block_count`` when every block ends before *key*.
        The bisection over resident headers is charged as comparisons;
        blocks leapt over are recorded as skips.
        """
        lo, hi = start, len(self.headers)
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if self.headers[mid].last_key < key:
                lo = mid + 1
            else:
                hi = mid
        if steps:
            self.cost_model.compare(steps)
        if lo > start:
            self.cost_model.block_skip(lo - start)
        return lo

    # ------------------------------------------------------------------
    # Uncharged access (construction, tests, persistence)
    # ------------------------------------------------------------------
    def entries(self, start: int = 0) -> list[tuple]:
        """Decode every block from *start* on without charging
        (maintenance path)."""
        result: list[tuple] = []
        for index in range(start, len(self.headers)):
            header = self.headers[index]
            entries = self._decoded.get(index)
            if entries is None:
                entries = self.codec.decode_columns(
                    self._raw_payload(index), header.count).rows()
                self._decoded[index] = entries
            result.extend(entries)
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the canonical wire format.

        Flat sequences use the historical ``TRXB`` layout (byte-for-byte
        what pre-compression catalogs wrote); compressed sequences use
        ``TRXC``, which carries the codec tag plus per-block raw and
        stored lengths.  Either way the encoding is deterministic: two
        sequences built from the same entries with the same codec, block
        size and compression serialize identically, which is what lets
        parallel build workers and replica leaders ship finished
        segments (and the golden tests diff them byte-wise).
        """
        if self.compression == "none":
            out = bytearray(_MAGIC)
            _write_uvarint(out, self.codec.key_width)
            _write_uvarint(out, len(self.headers))
            for header, payload in zip(self.headers, self._payloads):
                for component in header.first_key:
                    _write_uvarint(out, component)
                for component in header.last_key:
                    _write_uvarint(out, component)
                out.extend(_FLOAT.pack(header.max_score))
                _write_uvarint(out, header.count)
                _write_uvarint(out, header.byte_len)
                out.extend(payload)
            return bytes(out)
        out = bytearray(_MAGIC_COMPRESSED)
        tag = self.compression.encode("ascii")
        _write_uvarint(out, len(tag))
        out.extend(tag)
        _write_uvarint(out, self.codec.key_width)
        _write_uvarint(out, len(self.headers))
        for header, payload in zip(self.headers, self._payloads):
            for component in header.first_key:
                _write_uvarint(out, component)
            for component in header.last_key:
                _write_uvarint(out, component)
            out.extend(_FLOAT.pack(header.max_score))
            _write_uvarint(out, header.count)
            _write_uvarint(out, header.byte_len)
            _write_uvarint(out, len(payload))
            out.extend(payload)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, codec: BlockCodec,
                   cost_model: CostModel | None = None,
                   cache: PageCache | None = None,
                   source: str = "<bytes>",
                   sequence_id: int | None = None) -> "BlockSequence":
        """Reconstruct a sequence from :meth:`to_bytes` output.

        The image is self-describing: a ``TRXC`` image keeps the
        compression it was written with, so shipped segment images carry
        their codec tag across the delta log.  Torn or malformed bytes
        raise :class:`~repro.errors.StorageCorruptionError` with the
        *source* path and *sequence_id*.
        """
        compressed = data.startswith(_MAGIC_COMPRESSED)
        if not compressed and not data.startswith(_MAGIC):
            raise StorageCorruptionError(
                source, "not a block-sequence image (bad magic)",
                sequence_id=sequence_id)
        compression = "none"
        offset = len(_MAGIC_COMPRESSED) if compressed else len(_MAGIC)
        try:
            if compressed:
                tag_len, offset = _read_uvarint(data, offset)
                end = offset + tag_len
                if end > len(data):
                    raise CodecError("truncated compression tag")
                compression = data[offset:end].decode("ascii", "replace")
                if compression not in COMPRESSIONS:
                    raise CodecError(
                        f"unknown compression tag {compression!r}")
                offset = end
            key_width, offset = _read_uvarint(data, offset)
            if key_width != codec.key_width:
                raise StorageError(
                    f"{source}: key width {key_width} != codec {codec.key_width}")
            block_count, offset = _read_uvarint(data, offset)
            headers: list[BlockHeader] = []
            payloads: list[bytes] = []
            for _ in range(block_count):
                first = []
                for _ in range(key_width):
                    component, offset = _read_uvarint(data, offset)
                    first.append(component)
                last = []
                for _ in range(key_width):
                    component, offset = _read_uvarint(data, offset)
                    last.append(component)
                end = offset + _FLOAT.size
                if end > len(data):
                    raise CodecError("truncated block header")
                max_score = _FLOAT.unpack_from(data, offset)[0]
                offset = end
                count, offset = _read_uvarint(data, offset)
                byte_len, offset = _read_uvarint(data, offset)
                stored_len = byte_len
                if compression != "none":
                    stored_len, offset = _read_uvarint(data, offset)
                end = offset + stored_len
                if end > len(data):
                    raise CodecError("truncated block payload")
                headers.append(BlockHeader(tuple(first), tuple(last),
                                           max_score, count, byte_len))
                payloads.append(data[offset:end])
                offset = end
        except CodecError as err:
            raise StorageCorruptionError(
                source, f"corrupt block image: {err}",
                sequence_id=sequence_id) from err
        if offset != len(data):
            raise StorageCorruptionError(
                source, "trailing bytes in block image",
                sequence_id=sequence_id)
        sequence = cls(codec, headers, payloads, cost_model=cost_model,
                       cache=cache, compression=compression)
        sequence.source = source
        sequence.sequence_id = sequence_id
        return sequence

    def save(self, path: str | os.PathLike) -> None:
        """Write the image atomically (temp file + ``os.replace``)."""
        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path: str | os.PathLike, codec: BlockCodec,
             cost_model: CostModel | None = None,
             cache: PageCache | None = None,
             sequence_id: int | None = None) -> "BlockSequence":
        with open(path, "rb") as fh:
            data = fh.read()
        return cls.from_bytes(data, codec, cost_model=cost_model,
                              cache=cache, source=str(path),
                              sequence_id=sequence_id)
