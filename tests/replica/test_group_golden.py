"""The golden invariant under replication.

Replication may only change *where* a read runs, never its answer:
with N replicas per shard, every method's top-k stays byte-identical to
the single-engine ERA oracle, regardless of which replica each read
lands on.  Follower catalogs stay byte-identical to the leader's
(segment identities, base images and LSM delta runs) through warm-up,
ingest and compaction: built and compacted segments ship as the
leader's block images, and an ingested document is re-ingested on each
follower, whose restricted ERA pass yields the leader's delta rows.
"""

import pytest

from repro.build import BuildTarget
from repro.errors import ReplicaDivergenceError, StorageError
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

from tests.replica.conftest import (QUERY, assert_byte_identical,
                                    build_group, new_document)
from tests.shard.conftest import hit_keys
from tests.warm import warm

KS = (1, 3, 10)


@pytest.mark.parametrize("num_shards", (1, 2))
@pytest.mark.parametrize("num_replicas", (1, 2))
def test_replicated_matches_era_oracle(num_shards, num_replicas,
                                       ieee_collection, ieee_alias, oracle):
    query = "//article[about(., xml)]//sec[about(., retrieval)]"
    sharded = ShardedEngine(ieee_collection, num_shards, alias=ieee_alias,
                            replicas=num_replicas)
    warm(sharded, query, ("rpl", "erpl"))
    for k in KS:
        want = hit_keys(oracle.evaluate(query, k=k, method="era").hits)
        for method in ("era", "ta", "merge"):
            # Evaluate twice: round-robin moves the reads to a
            # different replica the second time.
            for attempt in range(2):
                got = hit_keys(sharded.evaluate(query, k=k,
                                                method=method).hits)
                assert got == want, (
                    f"divergence: k={k} shards={num_shards} "
                    f"replicas={num_replicas} method={method} "
                    f"attempt={attempt}")


def test_reads_actually_spread_over_replicas(ieee_collection, ieee_alias):
    sharded = ShardedEngine(ieee_collection, 2, alias=ieee_alias,
                            replicas=2)
    for _ in range(4):
        sharded.evaluate(QUERY, k=3, method="era", mode="flat")
    for shard in sharded.shards:
        reads = [replica.reads for replica in shard.group.replicas]
        assert all(count > 0 for count in reads), (
            f"shard {shard.index}: round-robin left a replica cold "
            f"({reads})")


def test_every_replica_answers_identically_direct():
    group = build_group(3)
    want = None
    for replica in group.replicas:
        got = hit_keys(replica.engine.evaluate(QUERY, k=3,
                                               method="era").hits)
        if want is None:
            want = got
        assert got == want
    assert want  # the query matches something


class TestByteIdenticalReplication:
    """Leader and followers hold the same bytes after every write."""

    def _warm(self, group, query=QUERY):
        engine = group.leader.engine
        translated = engine.translate(query)
        missing = engine.missing_segments(translated, ("rpl", "erpl"))
        assert missing
        report = group.warm_segments(list(missing))
        assert report.built > 0

    def test_warm_segments_broadcasts_images(self):
        group = build_group(2)
        self._warm(group)
        assert_byte_identical(group)
        assert len(list(group.leader.engine.catalog.segments())) > 0

    def test_ingest_ships_delta_runs(self):
        group = build_group(2)
        self._warm(group)
        for text in ("<a><sec>xml retrieval advances</sec></a>",
                     "<a><sec>retrieval of xml fragments</sec></a>"):
            group.add_document(new_document(group, text))
        assert_byte_identical(group)
        # The rows really landed as LSM delta runs, not rebuilds.
        leader = group.leader.engine.catalog
        assert leader.delta_snapshot()["delta_runs"] > 0

    def test_compaction_ships_snapshot_installs(self):
        group = build_group(2)
        self._warm(group)
        group.add_document(new_document(
            group, "<a><sec>xml retrieval advances</sec></a>"))
        folded = group.compact_segments(force=True)
        assert folded > 0
        assert_byte_identical(group)
        assert group.leader.engine.catalog.delta_snapshot()["delta_runs"] == 0
        assert group.counters()["snapshot_installs"] > 0

    def test_replicated_ingest_stays_golden(self):
        group = build_group(2)
        self._warm(group)
        group.add_document(new_document(
            group, "<a><sec>xml retrieval advances</sec></a>"))
        leader = group.leader.engine
        oracle = TrexEngine(leader.collection,
                            IncomingSummary(leader.collection),
                            scorer=leader.scorer,
                            tokenizer=leader.tokenizer)
        want = hit_keys(oracle.evaluate(QUERY, k=5, method="era").hits)
        for replica in group.replicas:
            for method in ("ta", "merge"):
                got = hit_keys(replica.engine.evaluate(
                    QUERY, k=5, method=method, mode="flat").hits)
                assert got == want, (
                    f"replica {replica.index} method={method} diverged")

    def test_install_entries_and_drop_broadcast(self):
        group = build_group(2)
        self._warm(group)
        leader = group.leader.engine
        source = next(iter(leader.catalog.segments()))
        entries = leader.catalog.segment_entries(source)
        segment = group.install_entries("rpl", "synthetic", entries)
        assert_byte_identical(group)
        group.drop_segment(segment.segment_id)
        assert_byte_identical(group)
        assert not group.leader.engine.catalog.has_segment(segment.segment_id)


class TestDivergenceFailsLoudly:
    """Evaluation never builds, so a follower's catalog changes only
    through shipped records and holds the leader's segment ids.  A
    record that finds otherwise is a divergence, raised — not skipped,
    and not papered over by evicting a resident segment."""

    def _warmed(self):
        group = build_group(2)
        engine = group.leader.engine
        group.warm_segments(engine.missing_segments(
            engine.translate(QUERY), ("rpl", "erpl")))
        return group

    def test_snapshot_install_for_a_missing_segment_raises(self):
        group = self._warmed()
        group.add_document(new_document(
            group, "<a><sec>xml retrieval advances</sec></a>"))
        follower = group.replicas[1].engine.catalog
        [victim, *_] = follower.compaction_candidates(0.0, force=True)
        follower.drop_segment(victim)
        with pytest.raises(ReplicaDivergenceError, match="unknown segment"):
            group.compact_segments(force=True)

    def test_drop_of_a_missing_segment_raises(self):
        group = self._warmed()
        victim = next(group.leader.engine.catalog.segments()).segment_id
        group.replicas[1].engine.catalog.drop_segment(victim)
        with pytest.raises(ReplicaDivergenceError, match="unknown segment"):
            group.drop_segment(victim)

    def test_forced_id_install_onto_a_taken_id_raises(self):
        group = build_group(2)
        follower = group.replicas[1].engine
        # A list the leader never shipped, under the id it allocates next.
        follower.build_segments([BuildTarget("rpl", "storage")])
        resident = follower.catalog.describe()
        engine = group.leader.engine
        with pytest.raises(ReplicaDivergenceError, match="is taken"):
            group.warm_segments(engine.missing_segments(
                engine.translate(QUERY), ("rpl",)))
        assert follower.catalog.describe() == resident
        segment = next(follower.catalog.segments())
        with pytest.raises(StorageError, match="is taken"):
            follower.catalog.install_sequence(
                "rpl", "xml", follower.catalog.blocks_for(segment),
                segment_id=segment.segment_id)
