#!/usr/bin/env python3
"""The serving layer under simulated concurrent load.

Builds a synthetic INEX-IEEE engine, wraps it in a QueryService (8
workers, result cache, manual autopilot) and fires a mixed workload at
it from 8 client threads: a hot query, forced-method queries, ingests
of new documents, and reads of the freshly ingested content.  Then one
autopilot cycle turns the observed traffic into materialized RPL/ERPL
segments and the hot query's strategy flips away from ERA — the
paper's §4 self-managing story, online.

Run:  PYTHONPATH=src python examples/serving.py
"""

import threading

from repro import AliasMapping, IncomingSummary, SyntheticIEEECorpus, TrexEngine
from repro.service import QueryService, ServiceConfig

HOT = "//article//sec[about(., information retrieval)]"
FORCED = "//sec[about(., algorithm)]"
FRESH = "//sec[about(., serving)]"

CLIENTS = 8
OPS_PER_CLIENT = 25


def build_service() -> QueryService:
    collection = SyntheticIEEECorpus(num_docs=25, seed=47).build()
    engine = TrexEngine(collection,
                        IncomingSummary(collection,
                                        alias=AliasMapping.inex_ieee()))
    config = ServiceConfig(workers=8, queue_depth=64, cache_capacity=128,
                           autopilot_interval=None,  # driven manually below
                           autopilot_budget=1 << 20)
    return QueryService(engine, config)


def client(service: QueryService, thread_id: int, errors: list) -> None:
    try:
        for index in range(OPS_PER_CLIENT):
            slot = index % 5
            if slot == 3:  # ingest a new document
                service.ingest(f"<article><sec>fresh serving content "
                               f"t{thread_id}x{index}</sec></article>")
            elif slot == 4:  # read what this (or any) client ingested
                service.search(FRESH, k=5)
            elif slot == 2:  # forced method: warmed on first use
                service.search(FORCED, k=3, method="merge")
            else:  # the hot query most traffic asks for
                service.search(HOT, k=5)
    except Exception as exc:  # pragma: no cover - demo robustness
        errors.append((thread_id, exc))


def main() -> None:
    service = build_service()
    engine = service.engine

    print(f"Hot query: {HOT}")
    translated = engine.translate(HOT)
    print(f"Strategy before any traffic: "
          f"{engine.choose_method(translated)!r} (no indexes stored)\n")

    print(f"Driving {CLIENTS} client threads x {OPS_PER_CLIENT} requests "
          "(searches, forced methods, ingests)...")
    errors: list = []
    threads = [threading.Thread(target=client, args=(service, t, errors))
               for t in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    stats = service.stats()
    counters = stats["telemetry"]["counters"]
    latency = stats["telemetry"]["histograms"]["search.latency_seconds"]
    print(f"  search requests : {counters['search.requests']}")
    print(f"  cache hits/miss : {counters.get('search.cache_hits', 0)}"
          f"/{counters.get('search.cache_misses', 0)} "
          f"(hit rate {stats['cache']['hit_rate']:.2f})")
    print(f"  ingested docs   : {counters.get('ingest.documents', 0)} "
          f"(engine epoch {stats['epoch']})")
    print(f"  latency p50/p99 : {latency['p50'] * 1e3:.2f} / "
          f"{latency['p99'] * 1e3:.2f} ms")
    print(f"  methods served  : "
          + ", ".join(f"{name.split('.')[-1]}={value}"
                      for name, value in sorted(counters.items())
                      if name.startswith("search.method.")))

    print("\nRunning one autopilot cycle over the observed workload...")
    report = service.autopilot.run_cycle(force=True)
    print(f"  workload size   : {report.workload_size} hottest queries")
    print(f"  plan            : {report.plan}")
    print(f"  materialized    : {report.materialized} segments "
          f"({report.materialized_bytes} bytes), "
          f"dropped {report.dropped}, skipped {report.skipped}")
    print(f"  expected cost   : {report.expected_cost:.1f} "
          f"(ERA baseline {report.baseline_cost:.1f})")

    after = engine.choose_method(engine.translate(HOT))
    served = service.search(HOT, k=5, use_cache=False)
    print(f"\nStrategy after the cycle: {after!r} "
          f"(served method: {served['method']!r})")
    assert after != "era", "autopilot should have flipped the hot query"

    service.close()
    print("Service drained and closed.")


if __name__ == "__main__":
    main()
