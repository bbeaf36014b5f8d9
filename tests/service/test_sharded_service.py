"""QueryService over a partitioned engine: config wiring, per-shard
telemetry, degraded-mode semantics and per-shard cache invalidation."""

import json
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.service import QueryService, ServiceConfig, make_server
from repro.shard import ShardedEngine

from tests.service.conftest import DOCS, build_engine

QUERY = "//sec[about(., xml retrieval)]"


def make_service(**overrides):
    settings = dict(workers=2, queue_depth=16, cache_capacity=32,
                    autopilot_interval=None, shards=2)
    settings.update(overrides)
    return QueryService(build_engine(*DOCS), ServiceConfig(**settings))


@pytest.fixture()
def service():
    svc = make_service()
    yield svc
    svc.close()


class TestWrapping:
    def test_config_shards_wraps_engine(self, service):
        assert isinstance(service.engine, ShardedEngine)
        assert service.engine.num_shards == 2

    def test_shards_1_adopts_the_engine(self):
        engine = build_engine(*DOCS)
        svc = QueryService(engine, ServiceConfig(autopilot_interval=None,
                                                 shards=1))
        try:
            assert isinstance(svc.engine, ShardedEngine)
            assert svc.engine.num_shards == 1
            assert svc.engine.shards[0].engine is engine
        finally:
            svc.close()

    def test_prebuilt_sharded_engine_used_as_is(self):
        engine = ShardedEngine.from_engine(build_engine(*DOCS), 3)
        svc = QueryService(engine, ServiceConfig(autopilot_interval=None,
                                                 shards=2))
        try:
            assert svc.engine is engine
            assert svc.engine.num_shards == 3
        finally:
            svc.close()


class TestSearchPayload:
    def test_search_reports_shard_section(self, service):
        payload = service.search(QUERY, k=3, method="era")
        assert payload["degraded"] is False
        shards = payload["shards"]
        assert shards["probed"] == 2
        assert shards["pruned"] == 0
        assert shards["timed_out"] == 0
        assert len(shards["per_shard"]) == 2

    def test_search_answers_match_monolithic(self, service):
        mono = make_service(shards=1)
        try:
            want = mono.search(QUERY, k=3, method="era", use_cache=False)
            got = service.search(QUERY, k=3, method="era", use_cache=False)
            assert got["hits"] == want["hits"]
        finally:
            mono.close()

    def test_stats_exposes_per_shard_rows(self, service):
        service.search(QUERY, k=3, method="era")
        snapshot = service.stats()
        assert snapshot["engine"]["num_shards"] == 2
        rows = snapshot["shards"]
        assert [row["shard"] for row in rows] == [0, 1]
        assert sum(row["probes"] for row in rows) > 0
        assert json.dumps(snapshot)  # must stay JSON-serializable

    def test_stats_aggregates_storage_across_shards(self):
        # The shards are built like the engine, backend and codec too.
        engine = build_engine(*DOCS, backend="mmap", compression="zlib")
        svc = QueryService(engine, ServiceConfig(
            workers=2, autopilot_interval=None, shards=2))
        try:
            svc.search(QUERY, k=3, method="ta", use_cache=False)
            storage = svc.stats()["storage"]
            assert storage["backend"] == "mmap"
            assert storage["compression"] == "zlib"
            assert storage["compressed_segments"] > 0
            assert storage["size_bytes"] > 0
            assert json.dumps(storage)
        finally:
            svc.close()


class TestDegradedMode:
    def test_timeout_fail_soft_returns_degraded_payload(self):
        svc = make_service(shard_deadline=0.0, fail_soft=True)
        try:
            payload = svc.search(QUERY, k=3, method="era", use_cache=False)
            assert payload["degraded"] is True
            assert payload["shards"]["timed_out"] == 2
            counters = svc.telemetry.snapshot()["counters"]
            assert counters.get("search.degraded", 0) > 0
        finally:
            svc.close()

    def test_degraded_is_http_200_not_5xx(self):
        svc = make_service(shard_deadline=0.0, fail_soft=True)
        server = make_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            url = f"http://{host}:{port}/search?q={quote(QUERY)}&k=3&method=era"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                body = json.loads(response.read())
            assert body["degraded"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            svc.close()

    def test_fail_hard_timeout_is_504(self):
        svc = make_service(shard_deadline=0.0, fail_soft=False,
                           cache_capacity=0)
        server = make_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            url = f"http://{host}:{port}/search?q={quote(QUERY)}&k=3&method=era"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=10)
            assert excinfo.value.code == 504
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            svc.close()


class TestShardedCaching:
    def test_epoch_sum_keys_cache(self, service):
        first = service.search(QUERY, k=3)
        again = service.search(QUERY, k=3)
        assert again["cached"] is True
        assert first["hits"] == again["hits"]
        assert first["epoch"] == 0
        # A change on either shard alone moves the summed epoch, so the
        # entry is invalidated whichever shard the change lands on.
        for shard in service.engine.shards:
            shard.engine.epoch += 1
            assert service.search(QUERY, k=3)["cached"] is False
            assert service.search(QUERY, k=3)["cached"] is True
        # An answer computed at an older epoch never overwrites it.
        key = (QUERY, 3, "auto", "nexi")
        service.cache.put(key, 1, {"stale": True})
        assert service.cache.get(key, service.engine.epoch)["epoch"] == 2

    def test_ingest_into_one_shard_invalidates(self, service):
        service.search(QUERY, k=3)
        before = [shard.engine.epoch for shard in service.engine.shards]
        service.ingest("<a><sec>xml retrieval advances</sec></a>")
        after = [shard.engine.epoch for shard in service.engine.shards]
        assert service.engine.epoch == sum(before) + 1
        # Exactly one shard's epoch moved.
        assert sum(1 for a, b in zip(before, after) if a != b) == 1
        payload = service.search(QUERY, k=3)
        assert payload["cached"] is False

    def test_healthz_epoch_is_json_shaped(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            url = f"http://{host}:{port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                body = json.loads(response.read())
            assert body["status"] == "ok"
            assert body["epoch"] == service.engine.epoch == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
