"""Tests for the QueryService facade: caching, epochs, warm-up."""

import threading

import pytest

from repro.errors import MissingIndexError, RetrievalError, ServiceClosedError
from repro.service import QueryService, ServiceConfig

QUERY = "//sec[about(., xml retrieval)]"


class TestSearch:
    def test_matches_direct_engine_evaluation(self, service, engine):
        payload = service.search(QUERY, k=3, method="era")
        direct = engine.evaluate(QUERY, k=3, method="era")
        assert payload["total"] == len(direct.hits)
        assert [h["docid"] for h in payload["hits"]] == \
            [h.docid for h in direct.hits]
        assert [h["score"] for h in payload["hits"]] == \
            [round(h.score, 6) for h in direct.hits]

    def test_payload_shape(self, service):
        payload = service.search(QUERY, k=2)
        assert payload["query"] == QUERY
        assert payload["k"] == 2
        assert payload["cached"] is False
        assert payload["epoch"] == 0
        assert len(payload["hits"]) == payload["total"] <= 2
        for hit in payload["hits"]:
            assert set(hit) == {"rank", "score", "docid", "sid", "label",
                                "start", "end"}

    def test_scores_descending(self, service):
        payload = service.search(QUERY)
        scores = [h["score"] for h in payload["hits"]]
        assert scores == sorted(scores, reverse=True)


class TestResultCacheIntegration:
    def test_repeat_query_served_from_cache(self, service):
        first = service.search(QUERY, k=3)
        second = service.search(QUERY, k=3)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["hits"] == first["hits"]
        assert service.cache.hits == 1

    def test_cache_respects_full_key(self, service):
        service.search(QUERY, k=3)
        other_k = service.search(QUERY, k=2)
        other_method = service.search(QUERY, k=3, method="era")
        assert other_k["cached"] is False
        assert other_method["cached"] is False

    def test_use_cache_false_bypasses(self, service):
        service.search(QUERY, k=3)
        again = service.search(QUERY, k=3, use_cache=False)
        assert again["cached"] is False

    def test_ingestion_invalidates_cached_results(self, service):
        before = service.search(QUERY, k=10)
        assert service.search(QUERY, k=10)["cached"] is True
        service.ingest("<a><sec>brand new xml retrieval text</sec></a>")
        after = service.search(QUERY, k=10)
        assert after["cached"] is False  # epoch advanced: stale entry dead
        assert after["epoch"] == before["epoch"] + 1
        assert after["total"] == before["total"] + 1

    def test_rebuild_scorer_invalidates_cached_results(self, service):
        service.search(QUERY, k=5)
        assert service.search(QUERY, k=5)["cached"] is True
        service.rebuild_scorer()
        assert service.search(QUERY, k=5)["cached"] is False


class TestForcedMethodWarmup:
    def test_ta_warms_missing_segments(self, service, engine):
        assert engine.catalog.find_segment("rpl", "xml", set()) is None
        payload = service.search(QUERY, k=2, method="ta")
        assert payload["method"] == "ta"
        assert engine.catalog.find_segment("rpl", "xml", set()) is not None
        assert service.telemetry.counter("warmup.segments") > 0

    def test_merge_warms_erpl(self, service, engine):
        payload = service.search(QUERY, method="merge")
        assert payload["method"] == "merge"
        assert engine.catalog.find_segment("erpl", "retrieval", set()) is not None

    def test_overlapping_warmups_each_count_their_own_build(self, service,
                                                            engine):
        """A warm-up counts the report its own build returned: a second
        warm-up that runs after the first released the write lock, but
        before it counted, neither hides nor doubles either build."""
        incr = service.telemetry.incr
        interleaved = []

        def incr_with_a_second_warmup(name, delta=1):
            if name == "warmup.segments" and not interleaved:
                interleaved.append(service.search(
                    "//sec[about(., storage)]", k=2, method="ta"))
            incr(name, delta)

        service.telemetry.incr = incr_with_a_second_warmup
        service.search(QUERY, k=2, method="ta")
        assert interleaved and interleaved[0]["method"] == "ta"
        segments = list(engine.catalog.segments())
        assert len(segments) == 3  # RPLs of xml, retrieval, storage
        counter = service.telemetry.counter
        assert counter("warmup.segments") == 3
        assert counter("build.segments") == 3
        assert counter("build.entries") == sum(
            segment.entry_count for segment in segments)

    def test_materialize_on_demand_off_raises(self, engine):
        config = ServiceConfig(workers=2, autopilot_interval=None,
                               materialize_on_demand=False)
        with QueryService(engine, config) as svc:
            with pytest.raises(MissingIndexError):
                svc.search(QUERY, k=2, method="ta")
            # auto still works: it falls back to what exists (ERA).
            assert svc.search(QUERY, k=2, method="auto")["method"] == "era"


class TestRejectedBeforeAnyWork:
    """A request no engine can answer is refused by ``check_request``
    before it is cached, queued or warmed: validation must not sit
    behind a forced method's warm-up under the write lock."""

    @pytest.mark.parametrize("bad", (
        dict(k=0, method="ta"),
        dict(k=2, method="merge", mode="bogus"),
        dict(k=2, method="race"),
        dict(k=2, method="ita"),
    ), ids=("k=0", "mode=bogus", "race", "ita"))
    def test_rejected_request_builds_nothing(self, service, engine, bad):
        submitted = service.executor.snapshot()
        with pytest.raises(RetrievalError):
            service.search(QUERY, **bad)
        assert list(engine.catalog.segments()) == []
        assert service.telemetry.counter("warmup.segments") == 0
        assert service.executor.snapshot() == submitted  # never queued
        assert service.telemetry.counter("search.errors") == 1
        # ... and the same method, asked properly, still warms and runs.
        assert service.search(QUERY, k=2, method="ta")["method"] == "ta"


class TestConcurrentClients:
    def test_many_threads_consistent_answers(self, service):
        reference = service.search(QUERY, k=5, use_cache=False)
        errors = []
        payloads = []
        payload_lock = threading.Lock()

        def client():
            try:
                result = service.search(QUERY, k=5, use_cache=False)
                with payload_lock:
                    payloads.append(result)
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert len(payloads) == 16
        for payload in payloads:
            assert payload["hits"] == reference["hits"]

    def test_worker_cost_models_isolated(self, service):
        threads = [threading.Thread(
            target=lambda: service.search(QUERY, use_cache=False))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        totals = service.worker_costs.aggregate()
        assert totals["workers"] >= 1
        assert totals["total_cost"] > 0
        # the engine's shared meter stays untouched by served queries
        assert service.engine.cost_model.total_cost == 0


class TestLifecycle:
    def test_stats_shape(self, service):
        service.search(QUERY, k=3)
        stats = service.stats()
        assert stats["epoch"] == 0
        assert stats["telemetry"]["counters"]["search.requests"] == 1
        assert stats["cache"]["capacity"] == 64
        assert stats["executor"]["workers"] == 4
        assert stats["engine"]["documents"] == 4
        assert "autopilot" in stats

    def test_stats_reports_storage_snapshot(self, service):
        service.search(QUERY, k=3)  # materialize at least one segment
        storage = service.stats()["storage"]
        assert storage["backend"] == "pager"
        assert storage["compression"] == "none"
        assert storage["compressed_segments"] == 0
        assert storage["compression_ratio"] == 1.0
        assert set(storage["kinds"]) <= {"rpl", "erpl"}
        assert storage["size_bytes"] == sum(
            row["size_bytes"] for row in storage["kinds"].values())

    def test_close_rejects_new_requests(self, engine):
        svc = QueryService(engine, ServiceConfig(workers=1,
                                                 autopilot_interval=None))
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.search(QUERY)
        with pytest.raises(ServiceClosedError):
            svc.ingest("<a><sec>x</sec></a>")

    def test_close_idempotent(self, service):
        service.close()
        service.close()

    def test_context_manager(self, engine):
        with QueryService(engine, ServiceConfig(workers=1,
                                                autopilot_interval=None)) as svc:
            assert svc.search(QUERY)["total"] >= 1
