"""LRU result cache with epoch-based invalidation.

Entries are keyed by the full evaluation identity ``(query, k, method,
mode)`` and stamped with the engine *epoch* they were computed under:
the coordinator's :attr:`~repro.shard.engine.ShardedEngine.epoch`, an
``int`` that grows with every data change on any shard.  A lookup that
finds an entry from a different epoch treats it as a miss and evicts
it — a cached answer can never survive a data change.  This is cheaper
and safer than enumerating which cached queries a new document affects:
invalidation is O(1) at write time (nothing to do) and O(1) at read
time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from .. import sanitizer

__all__ = ["ResultCache", "CacheKey"]

#: The evaluation identity a cached result answers.
CacheKey = Hashable


@dataclass
class _Entry:
    epoch: int
    value: Any


class ResultCache:
    """A bounded, thread-safe LRU map from query identity to results.

    ``capacity=0`` disables caching entirely (every ``get`` is a miss,
    ``put`` is a no-op) so the serving layer's cache on/off switch is
    just a configuration value.
    """

    __guarded_by__ = {
        "_lock": ("_entries", "hits", "misses", "evictions",
                  "invalidations"),
    }

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._lock = sanitizer.make_lock("result-cache")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: CacheKey, epoch: int) -> Any | None:
        """The cached value for *key* at *epoch*, or ``None``.

        An entry stored under a different epoch counts as a miss (and
        is evicted); an entry is never returned across a data change.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.epoch != epoch:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def put(self, key: CacheKey, epoch: int, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Never let an older computation overwrite a newer one.
                if existing.epoch > epoch:
                    return
                self._entries.move_to_end(key)
            self._entries[key] = _Entry(epoch, value)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float | int]:
        # One consistent read: hits/misses taken outside the lock could
        # disagree with each other (and with size) mid-request.
        with self._lock:
            hits = self.hits
            misses = self.misses
            total = hits + misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }
