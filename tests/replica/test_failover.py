"""Failover: mid-query faults retry on a sibling, answers never change.

The fault-injection hooks model a replica dying at three points: before
any query (``kill``), at the next liveness check (``inject_fault``
with ``after=0``) and *mid-query*, after work has already been done on
the dying replica (``after=1`` — the first check passes, the second
fires).  In every case a 2-replica group must return the exact oracle
answer with ``degraded=False``; only losing the whole group degrades.
"""

import pytest

from repro.errors import (ReplicaFaultError, ReplicaQuorumError,
                          ShardTimeoutError)
from repro.replica import DOWN, ReplicaHealth
from repro.retrieval.ta import TaSession
from repro.shard import ShardedEngine

from tests.replica.conftest import QUERY, build_group
from tests.shard.conftest import hit_keys
from tests.warm import warm

FLAT_QUERY = "//sec[about(., xml retrieval)]"


class TestGroupFailover:
    def test_run_read_fails_over_on_killed_replica(self, group):
        group.kill(0)
        result = group.run_read(lambda engine: engine.evaluate(
            QUERY, k=3, method="era"))
        assert len(result.hits) > 0
        # The killed leader is marked down; the sibling served.
        assert group.replicas[1].reads > 0
        assert group.healthy_count() == 1

    def test_injected_fault_counts_one_failover(self, group):
        group.inject_fault(0, after=0)
        group.run_read(lambda engine: engine.evaluate(
            QUERY, k=3, method="era"))
        counters = group.counters()
        assert counters["failovers"] == 1
        assert counters["faults"] == 1

    def test_injected_fault_is_single_shot(self, group):
        group.inject_fault(1, after=0)
        lease = group.lease(exclude=frozenset({0}))
        with pytest.raises(ReplicaFaultError):
            lease.check()
        lease.fail()
        # Disarmed after firing: the replica recovers via its probe.
        assert group.replicas[1].fault_budget is None

    def test_quorum_error_when_every_replica_is_gone(self, group):
        group.kill(0)
        group.kill(1)
        with pytest.raises(ReplicaQuorumError):
            group.run_read(lambda engine: engine.evaluate(
                QUERY, k=3, method="era"))

    def test_revived_replica_recovers_through_probe(self):
        now = [0.0]
        group = build_group(2, probe_interval=5.0, clock=lambda: now[0])
        group.kill(1)
        group.revive(1)
        # Before the probe interval the replica stays excluded.
        assert group.healthy_count() == 1
        now[0] = 5.0
        group.run_read(lambda engine: engine.evaluate(
            QUERY, k=3, method="era"))
        group.run_read(lambda engine: engine.evaluate(
            QUERY, k=3, method="era"))
        assert group.healthy_count() == 2


class TestShardedFailover:
    """The coordinator's read paths survive replica loss un-degraded."""

    def _sharded(self, collection, alias, **kw):
        kw.setdefault("replicas", 2)
        sharded = ShardedEngine(collection, 2, alias=alias, **kw)
        warm(sharded, FLAT_QUERY)
        return sharded

    def test_kill_one_replica_degrades_nothing_full_scatter(
            self, ieee_collection, ieee_alias, oracle):
        sharded = self._sharded(ieee_collection, ieee_alias)
        want = hit_keys(oracle.evaluate(QUERY, k=5, method="era").hits)
        sharded.shards[0].group.kill(0)
        result = sharded.evaluate(QUERY, k=5, method="era")
        assert hit_keys(result.hits) == want
        assert result.stats.degraded is False

    def test_mid_query_fault_fails_over_in_distributed_ta(
            self, ieee_collection, ieee_alias, oracle):
        sharded = self._sharded(ieee_collection, ieee_alias)
        want = hit_keys(oracle.evaluate(FLAT_QUERY, k=5, method="era",
                                        mode="flat").hits)
        # First liveness check (session open) passes, the second — at
        # the first sorted access, mid-query — fires the fault.
        sharded.shards[0].group.inject_fault(0, after=1)
        result = sharded.evaluate(FLAT_QUERY, k=5, method="ta", mode="flat")
        assert hit_keys(result.hits) == want
        assert result.stats.degraded is False
        assert result.stats.replica_failovers >= 1
        assert sharded.shards[0].group.counters()["failovers"] >= 1

    def test_fault_before_session_open_fails_over(
            self, ieee_collection, ieee_alias, oracle):
        sharded = self._sharded(ieee_collection, ieee_alias)
        want = hit_keys(oracle.evaluate(FLAT_QUERY, k=5, method="era",
                                        mode="flat").hits)
        sharded.shards[1].group.inject_fault(0, after=0)
        result = sharded.evaluate(FLAT_QUERY, k=5, method="ta", mode="flat")
        assert hit_keys(result.hits) == want
        assert result.stats.degraded is False

    def test_losing_a_whole_group_degrades_fail_soft(
            self, ieee_collection, ieee_alias):
        sharded = self._sharded(ieee_collection, ieee_alias)
        group = sharded.shards[0].group
        group.kill(0)
        group.kill(1)
        result = sharded.evaluate(QUERY, k=5, method="era")
        assert result.stats.degraded is True
        rows = [row for row in result.stats.shard_stats
                if row.get("failed")]
        assert [row["shard"] for row in rows] == [0]
        assert sharded.shards[0].quorum_losses == 1

    def test_losing_a_whole_group_raises_fail_hard(
            self, ieee_collection, ieee_alias):
        sharded = self._sharded(ieee_collection, ieee_alias,
                                fail_soft=False)
        group = sharded.shards[0].group
        group.kill(0)
        group.kill(1)
        with pytest.raises(ReplicaQuorumError):
            sharded.evaluate(QUERY, k=5, method="era")

    def test_quorum_loss_mid_ta_drops_only_that_shard(
            self, ieee_collection, ieee_alias):
        sharded = self._sharded(ieee_collection, ieee_alias)
        group = sharded.shards[0].group
        group.kill(1)
        group.inject_fault(0, after=1)
        result = sharded.evaluate(FLAT_QUERY, k=5, method="ta", mode="flat")
        assert result.stats.degraded is True
        failed = [row for row in result.stats.shard_stats
                  if row.get("failed")]
        assert [row["shard"] for row in failed] == [0]
        # Shard 1 still contributed: the answer is the partial merge.
        assert len(result.hits) > 0

    @pytest.mark.parametrize("method", ("era", "merge", "ta", "wand"))
    @pytest.mark.parametrize("mode", ("flat", "nexi"))
    def test_mid_query_fault_fails_over_for_every_method(
            self, ieee_collection, ieee_alias, oracle, method, mode):
        sharded = self._sharded(ieee_collection, ieee_alias)
        want = hit_keys(oracle.evaluate(FLAT_QUERY, k=5, method="era",
                                        mode=mode).hits)
        # The open's check passes, the one before the first step fires.
        sharded.shards[0].group.inject_fault(0, after=1)
        result = sharded.evaluate(FLAT_QUERY, k=5, method=method, mode=mode)
        assert hit_keys(result.hits) == want
        assert result.stats.degraded is False
        assert result.stats.replica_failovers == 1


class TestAbortSettlesLeases:
    """An aborted query settles every lease it holds: no replica keeps a
    read in flight, and a probe read does not stay outstanding (a
    ``probing`` replica admits nothing until its probe is settled)."""

    def _sharded(self, collection, alias, **kw):
        sharded = ShardedEngine(collection, 2, alias=alias, replicas=2,
                                fail_soft=False, **kw)
        warm(sharded, FLAT_QUERY)
        return sharded

    @staticmethod
    def _inflight(sharded):
        return [row["inflight"] for shard in sharded.shards
                for row in shard.group.snapshot()["replicas"]]

    @pytest.mark.parametrize("method", ("ta", "wand"))
    def test_fail_hard_deadline(self, ieee_collection, ieee_alias, method):
        sharded = self._sharded(ieee_collection, ieee_alias,
                                shard_deadline=0.0)
        with pytest.raises(ShardTimeoutError):
            sharded.evaluate(FLAT_QUERY, k=5, method=method, mode="flat")
        assert self._inflight(sharded) == [0, 0, 0, 0]

    def test_fail_hard_quorum_loss(self, ieee_collection, ieee_alias):
        sharded = self._sharded(ieee_collection, ieee_alias)
        sharded.shards[1].group.kill(0)
        sharded.shards[1].group.kill(1)
        with pytest.raises(ReplicaQuorumError):
            sharded.evaluate(FLAT_QUERY, k=5, method="ta", mode="flat")
        assert self._inflight(sharded) == [0, 0, 0, 0]

    def test_error_out_of_a_step(self, ieee_collection, ieee_alias,
                                 monkeypatch):
        sharded = self._sharded(ieee_collection, ieee_alias)

        def broken(session):
            raise RuntimeError("step failed")

        monkeypatch.setattr(TaSession, "step", broken)
        with pytest.raises(RuntimeError):
            sharded.evaluate(FLAT_QUERY, k=5, method="ta", mode="flat")
        assert self._inflight(sharded) == [0, 0, 0, 0]

    def test_aborted_probe_is_admitted_again_after_its_interval(
            self, ieee_collection, ieee_alias):
        now = [0.0]
        sharded = self._sharded(ieee_collection, ieee_alias,
                                shard_deadline=0.0)
        group = sharded.shards[0].group
        for replica in group.replicas:
            replica.health = ReplicaHealth(probe_interval=5.0,
                                           clock=lambda: now[0])
        group.kill(0)
        group.revive(0)
        now[0] = 5.0  # replica 0's probe is due: shard 0's lease takes it
        with pytest.raises(ShardTimeoutError):
            sharded.evaluate(FLAT_QUERY, k=5, method="ta", mode="flat")
        assert self._inflight(sharded) == [0, 0, 0, 0]
        assert group.replicas[0].health.state == DOWN
        now[0] = 10.0
        lease = group.lease()
        assert lease.replica.index == 0  # the next probe, preferred
        lease.succeed()
        assert group.healthy_count() == 2
