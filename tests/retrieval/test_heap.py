"""Tests for the instrumented top-k heap."""

import pytest

from repro.retrieval import TopKHeap
from repro.storage import CostModel


def make_heap(k):
    return TopKHeap(k, CostModel()), None


class TestTopKHeap:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKHeap(0, CostModel())

    def test_holds_top_k(self):
        heap = TopKHeap(3, CostModel())
        for score in [5.0, 1.0, 4.0, 2.0, 3.0]:
            heap.offer(score, f"e{score}")
        assert [score for score, _ in heap.items()] == [5.0, 4.0, 3.0]

    def test_min_score_underfull(self):
        heap = TopKHeap(3, CostModel())
        heap.offer(1.0, "a")
        assert heap.min_score() == float("-inf")

    def test_min_score_full(self):
        heap = TopKHeap(2, CostModel())
        for score, key in [(5.0, "a"), (3.0, "b"), (4.0, "c")]:
            heap.offer(score, key)
        assert heap.min_score() == 4.0

    def test_rescoring_same_key(self):
        heap = TopKHeap(2, CostModel())
        heap.offer(1.0, "a")
        heap.offer(2.0, "b")
        heap.offer(5.0, "a")  # a's score grows (monotone updates)
        assert heap.score_of("a") == 5.0
        assert len(heap) == 2
        assert heap.min_score() == 2.0

    def test_stale_entries_do_not_leak_into_results(self):
        heap = TopKHeap(2, CostModel())
        heap.offer(1.0, "a")
        heap.offer(1.5, "a")
        heap.offer(9.0, "b")
        heap.offer(8.0, "c")
        assert {key for _, key in heap.items()} == {"b", "c"}

    def test_lower_update_ignored(self):
        heap = TopKHeap(2, CostModel())
        heap.offer(5.0, "a")
        heap.offer(3.0, "a")
        assert heap.score_of("a") == 5.0

    def test_items_break_score_ties_on_the_key_itself(self):
        heap = TopKHeap(3, CostModel())
        for key in [(10, 5), (9, 5), (100, 1)]:
            heap.offer(2.0, key)
        # str() ordering would put (10, 5) and (100, 1) before (9, 5).
        assert [key for _, key in heap.items()] == [(9, 5), (10, 5), (100, 1)]

    def test_max_score_and_scores_need_no_sort(self):
        heap = TopKHeap(2, CostModel())
        assert heap.max_score() == float("-inf")
        for score, key in [(5.0, "a"), (3.0, "b"), (4.0, "c")]:
            heap.offer(score, key)
        assert heap.max_score() == 5.0
        assert sorted(heap.scores()) == [4.0, 5.0]

    def test_contains(self):
        heap = TopKHeap(1, CostModel())
        heap.offer(1.0, "a")
        assert "a" in heap
        heap.offer(2.0, "b")
        assert "a" not in heap and "b" in heap


class TestHeapCostAccounting:
    def test_inserts_charged_to_heap_meter(self):
        model = CostModel()
        heap = TopKHeap(5, model)
        heap.offer(1.0, "a")
        assert model.heap_cost > 0
        assert model.base_cost == 0  # heap work never hits the base meter

    def test_eviction_charges_removals(self):
        model = CostModel()
        heap = TopKHeap(1, model)
        heap.offer(1.0, "a")
        inserts_only = model.counters.heap_inserts
        heap.offer(2.0, "b")  # evicts a
        assert model.counters.heap_removes >= 1
        assert model.counters.heap_inserts == inserts_only + 1

    def test_small_k_costs_more_heap_work_than_large_k(self):
        """The paper's §5.2 heap observation: removals shrink as k grows."""
        def heap_cost(k):
            model = CostModel()
            heap = TopKHeap(k, model)
            for i in range(1000):
                heap.offer(float((i * 7919) % 1000), i)
            return model.counters.heap_removes

        assert heap_cost(10) > heap_cost(900)
