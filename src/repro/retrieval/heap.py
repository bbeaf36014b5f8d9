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
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

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

    Ties on score are broken deterministically: the payload with the
    smallest key (under ``prefer``, default the key itself) is retained
    preferentially, matching the ``(-score, docid, endpos)`` ordering
    the other strategies sort results by.  ``prefer`` maps a key to the
    sortable value ties are broken on.

    Stale entries for a re-scored payload are handled lazily: the heap
    may temporarily hold several entries per payload, and eviction
    discards entries that no longer reflect the payload's best score.
    """

    def __init__(self, k: int, cost_model: CostModel,
                 prefer: Callable[[Any], Any] | None = None) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.cost_model = cost_model
        self._prefer = prefer if prefer is not None else (lambda key: key)
        self._heap: list[tuple[float, _Reversed, Any]] = []
        self._best: dict[Any, float] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: Any) -> bool:
        return key in self._best

    def offer(self, score: float, key: Any) -> None:
        """Insert or update *key* with *score* (monotone updates only)."""
        previous = self._best.get(key)
        if previous is not None and previous >= score:
            return
        self._best[key] = score
        self.cost_model.heap_insert()
        heapq.heappush(self._heap, (score, _Reversed(self._prefer(key)), key))
        self._evict_down_to_k()

    def _evict_down_to_k(self) -> None:
        while len(self._best) > self.k:
            self.cost_model.heap_remove(len(self._best))
            score, _tie, key = heapq.heappop(self._heap)
            if self._best.get(key) == score:
                del self._best[key]
            # else: stale entry for a payload that was re-scored; the live
            # entry remains further up the heap.
        self._drop_stale_top()

    def _drop_stale_top(self) -> None:
        while self._heap:
            score, _tie, key = self._heap[0]
            if self._best.get(key) == score:
                return
            self.cost_model.heap_remove(len(self._best))
            heapq.heappop(self._heap)

    def min_score(self) -> float:
        """The k-th best score, or -inf while the heap is under-full."""
        if len(self._best) < self.k:
            return float("-inf")
        self._drop_stale_top()
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
