"""Blocked base indexes: one block sequence per key, and nothing else.

``Elements`` and ``PostingLists`` (paper §2.2) each live as a map from
key — a sid, a term — to one :class:`~repro.storage.blocks.BlockSequence`.
That map is the only representation: it is built straight from the
corpus, extended in place on ingest (the tail of each affected sequence is
decoded, merged and re-encoded), read by every iterator, and persisted
as a single blob through whichever
:class:`~repro.backend.StorageBackend` the engine saves with.
"""

from __future__ import annotations

import copy
import struct
from typing import Callable, Generic, Hashable, Iterable, Mapping, TypeVar

from ..errors import StorageCorruptionError
from ..storage.blocks import BlockSequence
from ..storage.cost import CostModel, GLOBAL_COST_MODEL
from ..storage.pager import PageCache
from ..storage.serialization import BlockCodec

__all__ = ["BlockedIndex"]

K = TypeVar("K", bound=Hashable)
IndexT = TypeVar("IndexT", bound="BlockedIndex")

_MAGIC = b"TRXI\x01"
_HEAD = struct.Struct(">II")   # chunk, sequence count
_ENTRY = struct.Struct(">HI")  # key length, image length


class BlockedIndex(Generic[K]):
    """``key -> BlockSequence`` with a fixed entries-per-block *chunk*."""

    #: Rows appended once to every new sequence (the postings sentinel).
    _terminator: tuple[tuple, ...] = ()
    #: Parses a persisted key back (keys are stored as their ``str()``).
    _parse_key: Callable[[str], K]

    def __init__(self, codec: BlockCodec, chunk: int,
                 cost_model: CostModel | None = None,
                 cache: PageCache | None = None) -> None:
        if chunk < 1:
            raise ValueError("entries per block must be positive")
        self.codec = codec
        self.chunk = chunk
        self.cost_model = (cost_model if cost_model is not None
                           else GLOBAL_COST_MODEL)
        self._cache = (cache if cache is not None
                       else PageCache(cost_model=self.cost_model))
        self._sequences: dict[K, BlockSequence] = {}

    # ------------------------------------------------------------------
    def sequence(self, key: K) -> BlockSequence | None:
        return self._sequences.get(key)

    def keys(self) -> list[K]:
        return sorted(self._sequences)

    @property
    def size_bytes(self) -> int:
        """Stored footprint across all sequences."""
        return sum(seq.size_bytes for seq in self._sequences.values())

    def use_cache(self, cache: PageCache) -> None:
        self._cache = cache
        for sequence in self._sequences.values():
            sequence.use_cache(cache)

    def view(self: IndexT, keys: Iterable[K], cost_model: CostModel,
             cache: PageCache) -> IndexT:
        """The sequences of *keys* as a read-only index that charges
        *cost_model* and is resident in *cache* — what a build pass
        reads through, so materialization leaves this index's meter and
        buffer pool untouched and mutates nothing a concurrent reader
        shares (see :meth:`BlockSequence.rebound`)."""
        clone = copy.copy(self)
        clone.cost_model = cost_model
        clone._cache = cache
        clone._sequences = {
            key: self._sequences[key].rebound(cost_model, cache)
            for key in keys if key in self._sequences}
        return clone

    # ------------------------------------------------------------------
    def _merge(self, added: Mapping[K, list[tuple]]) -> set[K]:
        """Fold *added* rows into their keys' sequences (maintenance
        path, uncharged) and return the affected keys.  An affected
        sequence keeps the blocks that end before its first new row and
        re-encodes the rest (:meth:`BlockSequence.merged`), so the
        result is what a from-scratch build over the merged rows
        encodes, byte for byte.  A key seen for the first time gets a
        fresh, terminated sequence."""
        for key, rows in added.items():
            old = self._sequences.get(key)
            if old is None:
                self._sequences[key] = BlockSequence.build(
                    sorted([*rows, *self._terminator]), self.codec,
                    block_size=self.chunk, cost_model=self.cost_model,
                    cache=self._cache)
            else:
                old.invalidate()
                self._sequences[key] = old.merged(sorted(rows), self.chunk)
        return set(added)

    # ------------------------------------------------------------------
    # Persistence: one self-describing blob per index
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The whole index as one image: chunk, then per key (sorted)
        the key and its sequence image.  Deterministic, so two indexes
        holding the same rows serialize identically."""
        out = bytearray(_MAGIC)
        out += _HEAD.pack(self.chunk, len(self._sequences))
        for key in self.keys():
            name = str(key).encode("utf-8")
            image = self._sequences[key].to_bytes()
            out += _ENTRY.pack(len(name), len(image))
            out += name
            out += image
        return bytes(out)

    def parse(self, data: bytes,
              source: str) -> tuple[int, dict[K, BlockSequence]]:
        """Validate a :meth:`to_bytes` image into ``(chunk, sequences)``
        without touching this index; :meth:`adopt` installs it.  Torn or
        foreign bytes raise :class:`~repro.errors.StorageCorruptionError`."""
        if not data.startswith(_MAGIC):
            raise StorageCorruptionError(
                source, "not a base-index image (bad magic)")
        offset = len(_MAGIC)
        sequences: dict[K, BlockSequence] = {}
        try:
            chunk, count = _HEAD.unpack_from(data, offset)
            offset += _HEAD.size
            for _ in range(count):
                name_len, image_len = _ENTRY.unpack_from(data, offset)
                offset += _ENTRY.size
                end = offset + name_len + image_len
                if end > len(data):
                    raise ValueError("truncated sequence image")
                key = self._parse_key(
                    data[offset:offset + name_len].decode("utf-8"))
                sequences[key] = BlockSequence.from_bytes(
                    data[offset + name_len:end], self.codec,
                    cost_model=self.cost_model, cache=self._cache,
                    source=f"{source}[{key}]")
                offset = end
        except (struct.error, ValueError) as err:
            raise StorageCorruptionError(
                source, f"corrupt base-index image: {err}") from err
        if offset != len(data) or chunk < 1:
            raise StorageCorruptionError(
                source, "trailing bytes or bad chunk in base-index image")
        return chunk, sequences

    def adopt(self, parsed: tuple[int, dict[K, BlockSequence]]) -> None:
        """Replace this index's contents with a :meth:`parse` result."""
        for old in self._sequences.values():
            old.invalidate()
        self.chunk, self._sequences = parsed
