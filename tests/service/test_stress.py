"""Acceptance stress test: 240 mixed search/ingest requests, 8 workers.

Eight client threads each issue 30 synchronous requests — a hot auto
query, forced TA and Merge queries (terms disjoint from the ingested
documents, so their warmed segments stay valid), reads of
freshly-ingested content, and ingests — and assert, under full
concurrency:

* no lost or corrupted responses;
* cache hits are served after warmup;
* stale results are never served post-ingestion (epoch check, plus a
  content check: a thread always sees its own ingested documents);
* the autopilot materializes advisor-chosen segments that flip the hot
  query's ``choose_method`` decision;
* ``/stats`` counters reconcile exactly with the traffic sent.
"""

import threading

from repro.service import QueryService, ServiceConfig

from tests.service.conftest import DOCS, build_engine

HOT = "//sec[about(., btree pages)]"
FORCED_TA = "//sec[about(., ranking)]"
FORCED_MERGE = "//sec[about(., models)]"
FRESH = "//sec[about(., fresh)]"

THREADS = 8
OPS_PER_THREAD = 30


def verify_payload(payload):
    """A response is structurally sound: ranks sequential, scores sorted."""
    assert payload["total"] == len(payload["hits"])
    assert [h["rank"] for h in payload["hits"]] == \
        list(range(1, payload["total"] + 1))
    scores = [h["score"] for h in payload["hits"]]
    assert scores == sorted(scores, reverse=True)


def test_stress_mixed_search_and_ingest():
    engine = build_engine(*DOCS)
    config = ServiceConfig(workers=8, queue_depth=64, cache_capacity=128,
                           autopilot_interval=None,
                           autopilot_min_observations=8)
    service = QueryService(engine, config)

    errors = []
    state_lock = threading.Lock()
    hot_hits_by_epoch = {}  # epoch -> hits; any divergence is corruption
    docids = []
    searches = [0]
    ingests = [0]

    def client(thread_id):
        last_ingest_epoch = 0
        my_docids = []
        try:
            for index in range(OPS_PER_THREAD):
                slot = index % 10
                if slot == 6:  # ingest (3 per thread, 24 total)
                    xml = (f"<a><sec>fresh content item "
                           f"t{thread_id}x{index}</sec></a>")
                    reply = service.ingest(xml)
                    last_ingest_epoch = reply["epoch"]
                    my_docids.append(reply["docid"])
                    with state_lock:
                        docids.append(reply["docid"])
                        ingests[0] += 1
                    continue
                if slot == 3:  # forced TA: warmed RPL, untouched by ingests
                    payload = service.search(FORCED_TA, k=3, method="ta")
                    assert payload["method"] == "ta"
                elif slot == 8:  # forced Merge: warmed ERPL
                    payload = service.search(FORCED_MERGE, method="merge")
                    assert payload["method"] == "merge"
                elif slot == 7:  # read-your-writes over ingested content
                    payload = service.search(FRESH)
                    got = {hit["docid"] for hit in payload["hits"]}
                    assert set(my_docids) <= got
                else:  # the hot query (6 of every 10 ops)
                    payload = service.search(HOT, k=5)
                    with state_lock:
                        known = hot_hits_by_epoch.setdefault(
                            payload["epoch"], payload["hits"])
                    assert payload["hits"] == known
                verify_payload(payload)
                # A cached answer must be as fresh as every ingest this
                # thread has already completed — never a stale epoch.
                if payload["cached"]:
                    assert payload["epoch"] >= last_ingest_epoch
                with state_lock:
                    searches[0] += 1
        except Exception as exc:  # noqa: BLE001 — surfaced via `errors`
            errors.append((thread_id, exc))

    threads = [threading.Thread(target=client, args=(t,))
               for t in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    # -- no lost responses, every ingest landed exactly once -----------
    assert searches[0] + ingests[0] == THREADS * OPS_PER_THREAD == 240
    assert ingests[0] == 24
    assert len(set(docids)) == len(docids) == 24
    assert engine.epoch == 24

    # -- cache serves repeats once the epoch stops moving --------------
    service.search(HOT, k=5)
    warm = service.search(HOT, k=5)
    assert warm["cached"] is True
    extra_searches = 2

    # -- /stats reconciles exactly with the traffic sent ---------------
    stats = service.stats()
    counters = stats["telemetry"]["counters"]
    requests = searches[0] + extra_searches
    assert counters["search.requests"] == requests
    assert counters["ingest.documents"] == 24
    assert counters["search.cache_hits"] >= 1
    assert counters["search.cache_hits"] + \
        counters["search.cache_misses"] == requests
    assert counters["search.answered"] + \
        counters["search.cache_hits"] == requests
    assert counters.get("search.rejected", 0) == 0
    assert counters.get("search.deadline_exceeded", 0) == 0
    assert counters.get("search.errors", 0) == 0
    assert stats["cache"]["hits"] == counters["search.cache_hits"]
    assert stats["engine"]["documents"] == len(DOCS) + 24
    assert stats["telemetry"]["histograms"]["search.latency_seconds"][
        "count"] == counters["search.answered"]

    # -- autopilot: observed traffic flips the hot query's plan --------
    translated = engine.translate(HOT)
    assert engine.choose_method(translated) == "era"  # nothing stored
    report = service.autopilot.run_cycle(force=True)
    assert report is not None
    assert report.materialized >= 1
    assert engine.choose_method(translated) != "era"
    flipped = service.search(HOT, k=5, use_cache=False)
    assert flipped["method"] != "era"

    post = service.stats()
    assert post["autopilot"]["cycles"] == 1
    assert post["autopilot"]["last_report"]["materialized"] >= 1
    assert post["autopilot"]["recorder"]["total_recorded"] >= requests

    service.close()
    assert service.stats()["closed"] is True
