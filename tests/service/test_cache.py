"""Tests for the epoch-invalidated LRU result cache."""

from repro.service import ResultCache


class TestLruSemantics:
    def test_get_put_round_trip(self):
        cache = ResultCache(capacity=4)
        cache.put(("q", 5), epoch=0, value={"answer": 1})
        assert cache.get(("q", 5), epoch=0) == {"answer": 1}
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_absent_key(self):
        cache = ResultCache(capacity=4)
        assert cache.get("nope", epoch=0) is None
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh 'a'
        cache.put("c", 0, 3)  # evicts 'b', the least recent
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.get("c", 0) == 3
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 0, 1)
        assert cache.get("a", 0) is None
        assert len(cache) == 0


class TestEpochInvalidation:
    def test_stale_epoch_is_a_miss_and_evicts(self):
        cache = ResultCache(capacity=4)
        cache.put("q", epoch=0, value="old")
        assert cache.get("q", epoch=1) is None
        assert cache.invalidations == 1
        assert len(cache) == 0
        # and the stale value is really gone, even at the old epoch
        assert cache.get("q", epoch=0) is None

    def test_fresh_value_replaces_stale(self):
        cache = ResultCache(capacity=4)
        cache.put("q", epoch=0, value="old")
        cache.put("q", epoch=1, value="new")
        assert cache.get("q", epoch=1) == "new"

    def test_older_computation_cannot_overwrite_newer(self):
        cache = ResultCache(capacity=4)
        cache.put("q", epoch=5, value="new")
        cache.put("q", epoch=3, value="stale-straggler")
        assert cache.get("q", epoch=5) == "new"

    def test_clear_counts_invalidations(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.clear() == 2
        assert cache.invalidations == 2
        assert len(cache) == 0


class TestSnapshot:
    def test_snapshot_fields(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 0, 1)
        cache.get("a", 0)
        cache.get("b", 0)
        snap = cache.snapshot()
        assert snap["size"] == 1
        assert snap["capacity"] == 4
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["hit_rate"] == 0.5


class TestTupleEpochs:
    """The cache only compares epochs (equality, then order), never
    looks inside one: an ordered token of another shape behaves exactly
    like the coordinator's int."""

    def test_hit_at_same_tuple(self):
        cache = ResultCache(capacity=4)
        cache.put("q", epoch=(0, 0, 0), value="answer")
        assert cache.get("q", epoch=(0, 0, 0)) == "answer"

    def test_single_shard_ingest_invalidates(self):
        cache = ResultCache(capacity=4)
        cache.put("q", epoch=(0, 0, 0), value="stale")
        assert cache.get("q", epoch=(0, 1, 0)) is None
        assert cache.invalidations == 1

    def test_older_tuple_cannot_overwrite_newer(self):
        # Lexicographic order is a valid newer-than test for
        # same-length tuples whose components only grow.
        cache = ResultCache(capacity=4)
        cache.put("q", epoch=(2, 5), value="new")
        cache.put("q", epoch=(2, 3), value="stale-straggler")
        assert cache.get("q", epoch=(2, 5)) == "new"
