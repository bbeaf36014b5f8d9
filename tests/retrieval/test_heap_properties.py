"""The top-k heap is charged, not performed — and the two must agree.

``TopKHeap.offer`` charges an unseen key's push-evict round trip below
the live top without making it.  ``ReferenceHeap`` is the heap as it
was before that change — every offer pushed, the minimum popped while
over ``k``, stale tops swept — kept verbatim as the oracle: after every
offer of a generated sequence the two must agree on the members, the
floor and every heap charge, float side-meter included.

Small score and key alphabets force what the admission test has to get
right: score ties (decided by the key), re-scoring, lower re-offers,
and evicted keys coming back.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.retrieval import TopKHeap
from repro.retrieval.heap import _Reversed
from repro.storage import CostModel


class ReferenceHeap:
    """The parent commit's push-then-evict ``TopKHeap``, verbatim."""

    def __init__(self, k, cost_model):
        self.k = k
        self.cost_model = cost_model
        self._heap = []
        self._best = {}

    def __len__(self):
        return len(self._best)

    def offer(self, score, key):
        previous = self._best.get(key)
        if previous is not None and previous >= score:
            return
        self._best[key] = score
        self.cost_model.heap_insert()
        heapq.heappush(self._heap, (score, _Reversed(key), key))
        self._evict_down_to_k()

    def _evict_down_to_k(self):
        while len(self._best) > self.k:
            self.cost_model.heap_remove(len(self._best))
            score, _tie, key = heapq.heappop(self._heap)
            if self._best.get(key) == score:
                del self._best[key]
        self._drop_stale_top()

    def _drop_stale_top(self):
        while self._heap:
            score, _tie, key = self._heap[0]
            if self._best.get(key) == score:
                return
            self.cost_model.heap_remove(len(self._best))
            heapq.heappop(self._heap)

    def min_score(self):
        if len(self._best) < self.k:
            return float("-inf")
        self._drop_stale_top()
        return self._heap[0][0]

    def items(self):
        return sorted(((score, key) for key, score in self._best.items()),
                      key=lambda pair: (-pair[0], pair[1]))


def _observed(heap):
    model = heap.cost_model
    return (len(heap), heap.min_score(), heap.items(),
            model.counters.heap_inserts, model.counters.heap_removes,
            model.snapshot().heap_levels)


OFFERS = st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                            st.integers(0, 11)), max_size=60)


@settings(max_examples=400, deadline=None)
@given(k=st.integers(1, 8), offers=OFFERS)
def test_every_offer_matches_the_push_then_evict_reference(k, offers):
    heap = TopKHeap(k, CostModel())
    reference = ReferenceHeap(k, CostModel())
    for step, (score, key) in enumerate(offers):
        heap.offer(score, key)
        reference.offer(score, key)
        assert _observed(heap) == _observed(reference), (step, score, key)
        # The invariant floor admission rests on: the top is live.
        top_score, _tie, top_key = heap._heap[0]
        assert heap.score_of(top_key) == top_score
