"""The instrumented top-k heap used by the threshold algorithm.

The paper's §5 makes heap management a first-class experimental
variable: TA's running time is dominated by it for small ``k``, and
*ITA* is defined as TA with the clock paused during heap operations.
This heap reproduces both behaviours at once: every sift is charged to
the cost model's separate *heap meter*, so one TA run yields the TA
time (base + heap) and the ITA time (base only).

The maintenance policy mirrors what the paper describes observing
("most of the elements that are inserted into this heap are not being
removed from it later on" for large ``k``): every candidate update is
*pushed*, and the minimum is *popped* whenever the heap exceeds ``k`` —
the insert-then-evict discipline whose removal count ``n - k`` shrinks
as ``k`` grows, matching the paper's cost-versus-k curves.

That discipline is what the meter *charges*; it is not always what the
interpreter *performs*.  An unseen key offered to a full heap below the
live top would be pushed, sift to the root, be popped straight back and
deleted — so :meth:`TopKHeap.offer` charges that round trip (one
insert, one removal at size ``k + 1``) and touches nothing.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable

from ..storage.cost import CostModel

__all__ = ["TopKHeap"]


class _Reversed:
    """Wraps a value so heap ordering prefers *larger* wrapped values
    for eviction — i.e. smaller original values are kept longer."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


class TopKHeap:
    """A bounded min-heap over (score, tiebreak, payload) triples.

    Ties on score are broken on the key itself: the payload with the
    smallest key is retained preferentially, matching the
    ``(-score, docid, endpos)`` ordering every strategy sorts results by.

    Stale entries for a re-scored payload are handled lazily: the heap
    may temporarily hold several entries per payload, and eviction
    discards entries that no longer reflect the payload's best score.
    :meth:`offer` is the only mutating method and leaves the heap's top
    *live* (its payload's current best score) on every return.
    """

    def __init__(self, k: int, cost_model: CostModel) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.cost_model = cost_model
        self._heap: list[tuple[float, _Reversed, Any]] = []
        self._best: dict[Any, float] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: Any) -> bool:
        return key in self._best

    def offer(self, score: float, key: Any) -> None:
        """Insert or update *key* with *score* (monotone updates only)."""
        best, heap, k = self._best, self._heap, self.k
        model = self.cost_model
        previous = best.get(key)
        if previous is not None:
            if previous >= score:
                return
        elif len(best) == k:
            top = heap[0]
            if score < top[0] or (score == top[0] and key > top[2]):
                # Floor admission.  The top is live, so this entry would
                # be the heap's minimum: pushed, then popped by the
                # eviction it triggers, leaving every other entry where
                # it was.  Charge that round trip — the same two calls,
                # in the same order, at the same size — and perform
                # none of it.
                model.heap_insert()
                model.heap_remove(k + 1)
                return
        best[key] = score
        model.heap_insert()
        heappush(heap, (score, _Reversed(key), key))
        while len(best) > k:
            model.heap_remove(len(best))
            popped_score, _tie, popped = heappop(heap)
            if best.get(popped) == popped_score:
                del best[popped]
            # else: stale entry for a payload that was re-scored; the live
            # entry remains further up the heap.
        while True:  # ends: every member's live entry is in the heap
            top = heap[0]
            if best.get(top[2]) == top[0]:
                return
            model.heap_remove(len(best))
            heappop(heap)

    def min_score(self) -> float:
        """The k-th best score, or -inf while the heap is under-full."""
        if len(self._best) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def max_score(self) -> float:
        """The best member's score, or -inf while the heap is empty."""
        return max(self._best.values(), default=float("-inf"))

    def scores(self) -> Iterable[float]:
        """The members' scores, in no particular order."""
        return self._best.values()

    def items(self) -> list[tuple[float, Any]]:
        """Current (score, key) members, best first (ties: smallest key)."""
        return sorted(((score, key) for key, score in self._best.items()),
                      key=lambda pair: (-pair[0], pair[1]))

    def score_of(self, key: Any) -> float | None:
        return self._best.get(key)
