"""QueryService over replica groups: config wiring, the ``/replicas``
endpoint, ``replica.*`` telemetry and replica-loss serving semantics."""

import json
import threading
import urllib.request

import pytest

from repro.service import QueryService, ServiceConfig, make_server
from repro.shard import ShardedEngine

from tests.service.conftest import DOCS, build_engine

QUERY = "//sec[about(., xml retrieval)]"


def make_service(**overrides):
    settings = dict(workers=2, queue_depth=16, cache_capacity=32,
                    autopilot_interval=None, shards=2, replicas=2)
    settings.update(overrides)
    return QueryService(build_engine(*DOCS), ServiceConfig(**settings))


@pytest.fixture()
def service():
    svc = make_service()
    yield svc
    svc.close()


class TestWrapping:
    def test_replicas_config_builds_replica_groups(self, service):
        engine = service.engine
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 2
        assert all(len(shard.group) == 2 for shard in engine.shards)

    def test_replicas_alone_wraps_a_monolith(self):
        svc = make_service(shards=1, replicas=2,
                           read_policy="least_inflight")
        try:
            engine = svc.engine
            assert isinstance(engine, ShardedEngine)
            assert engine.num_shards == 1
            assert len(engine.shards[0].group) == 2
            assert engine.read_policy == "least_inflight"
        finally:
            svc.close()

    def test_single_replica_single_shard_adopts_the_engine(self):
        engine = build_engine(*DOCS)
        svc = QueryService(engine, ServiceConfig(autopilot_interval=None))
        try:
            assert isinstance(svc.engine, ShardedEngine)
            assert svc.engine.shards[0].engine is engine
            assert len(svc.engine.shards[0].group) == 1
        finally:
            svc.close()


class TestReplicaStats:
    def test_replica_stats_shape(self, service):
        service.search(QUERY, k=3, method="era", use_cache=False)
        stats = service.replica_stats()
        assert stats["replicated"] is True
        assert stats["replicas"] == 2
        assert stats["read_policy"] == "round_robin"
        assert len(stats["groups"]) == 2
        for group in stats["groups"]:
            assert group["quorum_met"] is True
            roles = [row["role"] for row in group["replicas"]]
            assert roles == ["leader", "follower"]
        assert json.dumps(stats)  # must stay JSON-serializable

    def test_unsharded_service_reports_unreplicated(self):
        svc = make_service(shards=1, replicas=1)
        try:
            stats = svc.replica_stats()
            assert stats["replicated"] is False
            assert stats["replicas"] == 1
            assert [group["shard"] for group in stats["groups"]] == [0]
            assert json.dumps(stats)
        finally:
            svc.close()

    def test_replicas_endpoint_serves_the_snapshot(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            url = f"http://{host}:{port}/replicas"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                body = json.loads(response.read())
            assert body["replicated"] is True
            assert len(body["groups"]) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_stats_snapshot_carries_replication_counters(self, service):
        service.ingest("<a><sec>xml retrieval advances</sec></a>")
        snapshot = service.stats()
        assert snapshot["engine"]["replicas"] == 2
        assert snapshot["replication"]["records_shipped"] >= 1


class TestReplicaTelemetry:
    def test_search_emits_replica_reads(self, service):
        service.search(QUERY, k=3, method="era", use_cache=False)
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("replica.reads", 0) >= 2

    def test_ingest_emits_records_shipped(self, service):
        service.ingest("<a><sec>xml retrieval advances</sec></a>")
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("replica.records_shipped", 0) >= 1

    def test_failover_is_counted(self, service):
        engine = service.engine
        engine.shards[0].group.inject_fault(0, after=0)
        payload = service.search(QUERY, k=3, method="era", use_cache=False)
        assert payload["degraded"] is False
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("replica.failovers", 0) >= 1


class TestReplicaLossServing:
    def test_killed_replica_degrades_no_answer(self, service):
        want = service.search(QUERY, k=3, method="era",
                              use_cache=False)["hits"]
        service.engine.shards[0].group.kill(1)
        got = service.search(QUERY, k=3, method="era", use_cache=False)
        assert got["hits"] == want
        assert got["degraded"] is False

    def test_replicated_answers_match_unreplicated(self):
        plain = make_service(replicas=1)
        try:
            want = plain.search(QUERY, k=3, method="era",
                                use_cache=False)["hits"]
        finally:
            plain.close()
        replicated = make_service()
        try:
            for _ in range(3):  # rotate reads over both replicas
                got = replicated.search(QUERY, k=3, method="era",
                                        use_cache=False)["hits"]
                assert got == want
        finally:
            replicated.close()

    def test_ingest_then_search_consistent_on_every_replica(self, service):
        service.ingest("<a><sec>xml retrieval advances</sec></a>")
        first = service.search(QUERY, k=5, method="era",
                               use_cache=False)["hits"]
        second = service.search(QUERY, k=5, method="era",
                                use_cache=False)["hits"]
        assert first == second
