"""The golden invariant and the distributed-TA economy claim.

Golden invariant: a sharded engine's top-k is byte-identical (element
identities, scores, order) to the single-engine ERA oracle at every k,
for every shard count, policy and method.  This is the correctness bar
the whole subsystem is built against: sharding may only change *cost*,
never *answers*.

Economy: the coordinated scatter-gather TA decodes fewer posting
entries than N independent full-k per-shard TA scans at the same batch
size, because the global floor prunes shards whose remaining upper
bound cannot reach the top-k.
"""

import pytest

from repro.shard import ShardedEngine

from tests.shard.conftest import hit_keys
from tests.warm import warm

QUERIES = (
    "//article[about(., xml)]//sec[about(., retrieval)]",
    "//article[about(., database systems)]",
    "//sec[about(., query evaluation)]",
)

SHARD_COUNTS = (1, 2, 4)
KS = (1, 10, 100)


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("k", KS)
def test_sharded_matches_era_oracle(query, k, ieee_collection, ieee_alias,
                                    oracle):
    for mode in ("flat", "nexi"):
        want = hit_keys(oracle.evaluate(query, k=k, method="era",
                                        mode=mode).hits)
        for num_shards in SHARD_COUNTS:
            for policy in ("hash", "range"):
                sharded = ShardedEngine(ieee_collection, num_shards,
                                        policy=policy, alias=ieee_alias)
                warm(sharded, query)
                for method in ("era", "ta", "merge"):
                    result = sharded.evaluate(query, k=k, method=method,
                                              mode=mode)
                    got = hit_keys(result.hits)
                    assert got == want, (
                        f"divergence: {query!r} k={k} mode={mode} "
                        f"N={num_shards} policy={policy} method={method}")


def test_sharded_matches_oracle_unbounded_k(ieee_collection, ieee_alias,
                                            oracle):
    query = QUERIES[0]
    want = hit_keys(oracle.evaluate(query, method="era").hits)
    sharded = ShardedEngine(ieee_collection, 3, alias=ieee_alias)
    got = hit_keys(sharded.evaluate(query, method="era").hits)
    assert got == want


def test_sids_relabeled_to_global_summary(ieee_collection, ieee_alias,
                                          oracle):
    """Hits carry sids of the *global* summary, not shard-local ones."""
    query = QUERIES[0]
    want = oracle.evaluate(query, k=10, method="era").hits
    sharded = ShardedEngine(ieee_collection, 4, alias=ieee_alias)
    got = sharded.evaluate(query, k=10, method="era").hits
    assert [hit.sid for hit in got] == [hit.sid for hit in want]


class TestDistributedTaEconomy:
    """Coordinated TA must beat N independent full scans on skew."""

    QUERY = "//sec[about(., xml retrieval)]"

    def _engines(self, skewed_collection, skew_tokenizer):
        coordinated = ShardedEngine(skewed_collection, 4, policy="range",
                                    tokenizer=skew_tokenizer,
                                    ta_batch_size=4, block_size=4)
        independent = ShardedEngine(skewed_collection, 4, policy="range",
                                    tokenizer=skew_tokenizer,
                                    ta_batch_size=4, block_size=4)
        for engine in (coordinated, independent):
            warm(engine, self.QUERY, ("rpl",))
        return coordinated, independent

    def _independent_entries(self, engine, k):
        return sum(
            shard.engine.evaluate(self.QUERY, k=k, method="ta",
                                  mode="flat").stats.entries_decoded
            for shard in engine.shards)

    @pytest.mark.parametrize("k", (3, 10))
    def test_pruning_saves_entries(self, k, skewed_collection,
                                   skew_tokenizer):
        coordinated, independent = self._engines(skewed_collection,
                                                 skew_tokenizer)
        result = coordinated.evaluate(self.QUERY, k=k, method="ta",
                                      mode="flat")
        assert result.stats.shards_pruned > 0
        assert result.stats.entries_decoded < \
            self._independent_entries(independent, k)

    def test_no_regression_at_k1(self, skewed_collection, skew_tokenizer):
        coordinated, independent = self._engines(skewed_collection,
                                                 skew_tokenizer)
        result = coordinated.evaluate(self.QUERY, k=1, method="ta",
                                      mode="flat")
        assert result.stats.entries_decoded <= \
            self._independent_entries(independent, 1)

    @pytest.mark.parametrize("k", (1, 3, 10))
    def test_pruned_run_is_still_golden(self, k, skewed_collection,
                                        skew_tokenizer):
        from repro.retrieval import TrexEngine

        oracle = TrexEngine(skewed_collection, tokenizer=skew_tokenizer,
                            block_size=4)
        want = hit_keys(oracle.evaluate(self.QUERY, k=k, method="era",
                                        mode="flat").hits)
        coordinated, _ = self._engines(skewed_collection, skew_tokenizer)
        got = hit_keys(coordinated.evaluate(self.QUERY, k=k, method="ta",
                                            mode="flat").hits)
        assert got == want

    def test_shard_stats_expose_termination_depth(self, skewed_collection,
                                                  skew_tokenizer):
        coordinated, _ = self._engines(skewed_collection, skew_tokenizer)
        result = coordinated.evaluate(self.QUERY, k=3, method="ta",
                                      mode="flat")
        stats = result.stats
        assert stats.shards_probed == 4
        assert len(stats.shard_stats) == 4
        for row in stats.shard_stats:
            assert {"shard", "entries_decoded", "pruned"} <= set(row)
        assert sum(row["pruned"] for row in stats.shard_stats) == \
            stats.shards_pruned
