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
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

from tests.replica.conftest import (QUERY, assert_byte_identical,
                                    build_group, catalog_image, new_document)
from tests.shard.conftest import hit_keys

KS = (1, 3, 10)


@pytest.mark.parametrize("num_shards", (1, 2))
@pytest.mark.parametrize("num_replicas", (1, 2))
def test_replicated_matches_era_oracle(num_shards, num_replicas,
                                       ieee_collection, ieee_alias, oracle):
    query = "//article[about(., xml)]//sec[about(., retrieval)]"
    sharded = ShardedEngine(ieee_collection, num_shards, alias=ieee_alias,
                            replicas=num_replicas)
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
        group = build_group(2, auto_materialize=False)
        self._warm(group)
        assert_byte_identical(group)
        assert len(list(group.leader.engine.catalog.segments())) > 0

    def test_ingest_ships_delta_runs(self):
        group = build_group(2, auto_materialize=False)
        self._warm(group)
        for text in ("<a><sec>xml retrieval advances</sec></a>",
                     "<a><sec>retrieval of xml fragments</sec></a>"):
            group.add_document(new_document(group, text))
        assert_byte_identical(group)
        # The rows really landed as LSM delta runs, not rebuilds.
        leader = group.leader.engine.catalog
        assert leader.delta_snapshot()["delta_runs"] > 0

    def test_compaction_ships_snapshot_installs(self):
        group = build_group(2, auto_materialize=False)
        self._warm(group)
        group.add_document(new_document(
            group, "<a><sec>xml retrieval advances</sec></a>"))
        folded = group.compact_segments(force=True)
        assert folded > 0
        assert_byte_identical(group)
        assert group.leader.engine.catalog.delta_snapshot()["delta_runs"] == 0
        assert group.counters()["snapshot_installs"] > 0

    def test_replicated_ingest_stays_golden(self):
        group = build_group(2, auto_materialize=False)
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
        group = build_group(2, auto_materialize=False)
        self._warm(group)
        leader = group.leader.engine
        source = next(iter(leader.catalog.segments()))
        entries = leader.catalog.segment_entries(source)
        segment = group.install_entries("rpl", "synthetic", entries)
        assert_byte_identical(group)
        group.drop_segment(segment.segment_id)
        assert_byte_identical(group)
        assert not group.leader.engine.catalog.has_segment(segment.segment_id)


class TestReplicaLocalLazyBuilds:
    """With ``auto_materialize`` on, a replica builds missing lists for
    itself under locally allocated ids, so leader and follower can hold
    different lists under one id.  Replicated ingest re-runs each
    replica's own ingest, so every list gets its own rows."""

    def test_each_replica_extends_its_own_lists(self):
        group = build_group(2, auto_materialize=True)
        leader, follower = (replica.engine for replica in group.replicas)
        translated = leader.translate("//sec[about(., retrieval)]")
        group.warm_segments(list(leader.missing_segments(
            translated, ("rpl", "erpl"))))
        shared = set(catalog_image(leader))
        leader.evaluate("//sec[about(., xml)]", k=3, method="ta",
                        mode="flat")
        follower.evaluate("//sec[about(., storage)]", k=3, method="ta",
                          mode="flat")
        local = {}
        for engine, term in ((leader, "xml"), (follower, "storage")):
            [segment_id] = [segment.segment_id
                            for segment in engine.catalog.segments("rpl")
                            if segment.term == term]
            local[term] = segment_id
        assert local["xml"] == local["storage"]

        for text in ("<a><sec>xml storage and retrieval</sec></a>",
                     "<a><sec>storage of xml fragments</sec></a>"):
            group.add_document(new_document(group, text))

        leader_image, follower_image = (catalog_image(engine)
                                        for engine in (leader, follower))
        for key in shared:
            assert leader_image[key] == follower_image[key], key
        for engine in (leader, follower):
            fresh = TrexEngine(engine.collection,
                               IncomingSummary(engine.collection),
                               scorer=engine.scorer,
                               tokenizer=engine.tokenizer)
            for segment in engine.catalog.segments():
                target = BuildTarget(segment.kind, segment.term,
                                     segment.scope)
                want = fresh.compute_entries([target]).entries[target]
                got = engine.catalog.segment_entries(segment)
                assert sorted(got) == sorted(want), segment.describe()
            assert engine.catalog.delta_snapshot()["delta_runs"] > 0
