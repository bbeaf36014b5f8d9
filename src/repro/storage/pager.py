"""Page cache simulation for the storage engine.

The B+-tree in :mod:`repro.storage.btree` keeps its nodes as Python
objects, but every *access* to a node is routed through a
:class:`PageCache`, which simulates a fixed-capacity LRU buffer pool in
front of disk-resident pages.  A node access that misses the cache is
charged as a page read against the active :class:`~repro.storage.cost.
CostModel`; a hit is charged the (much cheaper) cache-hit cost.

This gives the reproduction the property that matters for the paper's
experiments: scanning a long posting list costs proportionally to its
length in pages, re-visiting a hot index root is nearly free, and random
probes into a large table keep missing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from .cost import CostModel, GLOBAL_COST_MODEL


class PageCache:
    """An LRU cache over opaque page identifiers.

    The cache does not hold page *contents* (nodes stay reachable as
    Python objects); it tracks which page ids would be resident in a
    buffer pool of ``capacity`` pages, and charges the cost model
    accordingly on every touch.
    """

    def __init__(self, capacity: int = 4096, cost_model: CostModel | None = None) -> None:
        if capacity < 1:
            raise ValueError("page cache capacity must be >= 1")
        self.capacity = capacity
        self.cost_model = cost_model if cost_model is not None else GLOBAL_COST_MODEL
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def touch(self, page_id: int) -> bool:
        """Record an access to *page_id*; return True on a cache hit."""
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.hits += 1
            self.cost_model.page_hit()
            return True
        self.misses += 1
        self.cost_model.page_read()
        self._resident[page_id] = None
        if len(self._resident) > self.capacity:
            self._resident.popitem(last=False)
            self.evictions += 1
        return False

    def touch_block(self, page_id: int, factor: float = 1.0) -> bool:
        """Record an access to a compressed block; True on a cache hit.

        Same LRU bookkeeping as :meth:`touch`, but a miss is charged as
        a ``block_read`` — blocks are packed back to back, so a cold
        fetch is a short sequential read, not a full page fault.
        ``factor`` scales the miss charge for the storage backend the
        block lives in (see :class:`repro.backend.CostProfile`); hits
        cost the same everywhere — residency is residency.
        """
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.hits += 1
            self.cost_model.page_hit()
            return True
        self.misses += 1
        self.cost_model.block_read(factor=factor)
        self._resident[page_id] = None
        if len(self._resident) > self.capacity:
            self._resident.popitem(last=False)
            self.evictions += 1
        return False

    def touch_blocks(self, page_ids: Sequence[int],
                     factors: Sequence[float]) -> list[int]:
        """:meth:`touch_block` for each of *page_ids* in order, where
        ``factors[i]`` scales the miss charge of ``page_ids[i]``.

        The LRU state, the hit / miss / eviction counts and the charges
        are those of one :meth:`touch_block` per page: a miss goes
        through it, a hit is handled here and the hits are charged in
        one call.  Returns the positions of the misses.
        """
        resident = self._resident
        touch = resident.move_to_end
        misses: list[int] = []
        hits = 0
        for position, page_id in enumerate(page_ids):
            if page_id in resident:
                touch(page_id)
                hits += 1
            else:
                self.touch_block(page_id, factor=factors[position])
                misses.append(position)
        if hits:
            self.hits += hits
            self.cost_model.page_hit(hits)
        return misses

    def invalidate(self, page_id: int) -> None:
        """Drop *page_id* from the cache (page was freed or rewritten)."""
        self._resident.pop(page_id, None)

    def clear(self) -> None:
        self._resident.clear()

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._resident

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageIdAllocator:
    """Hands out monotonically increasing page identifiers."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        page_id = self._next
        self._next += 1
        return page_id

    @property
    def allocated(self) -> int:
        return self._next
