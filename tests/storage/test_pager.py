"""Tests for the page-cache simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BPlusTree, CostModel, PageCache, PageIdAllocator


class TestPageCache:
    def test_miss_then_hit(self):
        cache = PageCache(capacity=4, cost_model=CostModel())
        assert cache.touch(1) is False  # miss
        assert cache.touch(1) is True   # hit
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = PageCache(capacity=2, cost_model=CostModel())
        cache.touch(1)
        cache.touch(2)
        cache.touch(3)  # evicts 1
        assert 1 not in cache
        assert 2 in cache and 3 in cache
        assert cache.evictions == 1

    def test_touch_refreshes_recency(self):
        cache = PageCache(capacity=2, cost_model=CostModel())
        cache.touch(1)
        cache.touch(2)
        cache.touch(1)  # 1 becomes most recent
        cache.touch(3)  # evicts 2, not 1
        assert 1 in cache and 2 not in cache

    def test_invalidate(self):
        cache = PageCache(capacity=4, cost_model=CostModel())
        cache.touch(1)
        cache.invalidate(1)
        assert 1 not in cache
        cache.invalidate(99)  # no-op

    def test_costs_charged(self):
        model = CostModel()
        cache = PageCache(capacity=2, cost_model=model)
        cache.touch(1)
        cache.touch(1)
        assert model.counters.page_reads == 1
        assert model.counters.page_hits == 1

    def test_hit_rate(self):
        cache = PageCache(capacity=4, cost_model=CostModel())
        assert cache.hit_rate == 0.0
        cache.touch(1)
        cache.touch(1)
        assert cache.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PageCache(capacity=0)

    def test_clear(self):
        cache = PageCache(capacity=4, cost_model=CostModel())
        cache.touch(1)
        cache.clear()
        assert len(cache) == 0


@given(pages=st.lists(st.integers(0, 9), max_size=40),
       factors=st.lists(st.sampled_from([0.75, 1.0, 1.5]), min_size=40,
                        max_size=40),
       capacity=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_touch_blocks_is_touch_block_per_page(pages, factors, capacity):
    one = PageCache(capacity=capacity, cost_model=CostModel())
    batch = PageCache(capacity=capacity, cost_model=CostModel())
    hit = [one.touch_block(page, factor=factors[n])
           for n, page in enumerate(pages)]
    misses = batch.touch_blocks(pages, factors)
    assert misses == [n for n, was_hit in enumerate(hit) if not was_hit]
    assert list(batch._resident) == list(one._resident)  # LRU order too
    assert ((batch.hits, batch.misses, batch.evictions)
            == (one.hits, one.misses, one.evictions))
    assert batch.cost_model.snapshot() == one.cost_model.snapshot()


class TestPageIdAllocator:
    def test_monotonic(self):
        alloc = PageIdAllocator()
        ids = [alloc.allocate() for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert alloc.allocated == 5


class TestCacheEffects:
    def test_small_cache_costs_more_than_large(self):
        """Random probes against a big tree: a tiny buffer pool misses
        constantly, a big one keeps the working set resident."""
        def probe_cost(capacity):
            model = CostModel()
            from repro.storage.pager import PageCache as PC
            cache = PC(capacity=capacity, cost_model=model)
            tree = BPlusTree(order=8, cache=cache, cost_model=model)
            for key in range(2000):
                tree.put(key, key)
            model.reset()
            for key in range(0, 2000, 7):
                tree.get((key * 811) % 2000)
            return model.total_cost

        assert probe_cost(4) > probe_cost(4096)

    def test_repeated_scans_hit_cache(self):
        model = CostModel()
        tree = BPlusTree(order=8, cost_model=model)
        for key in range(500):
            tree.put(key, key)
        tree.cache.clear()  # construction warmed the cache; start cold
        model.reset()
        list(tree.items())
        cold = model.counters.page_reads
        assert cold > 0
        list(tree.items())
        warm = model.counters.page_reads - cold
        assert warm < cold / 2  # second scan mostly cached
