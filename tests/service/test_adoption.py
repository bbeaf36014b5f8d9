"""A 1 × 1 service is the one-shard coordinator over the engine it was
given: ``ShardedEngine.from_engine(engine, 1)`` adopts the engine — no
partition, no rebuild, one translation — and everything the service
reports at 1 × 1 reads that coordinator."""

import pytest

from repro.bench import PAPER_QUERIES
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.index.elements import BlockedElements
from repro.index.postings import BlockedPostings
from repro.nexi import translate as nexi_translate
from repro.retrieval import TrexEngine
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary
from repro.summary.base import PartitionSummary

from tests.service.conftest import DOCS, build_engine

QUERY = "//sec[about(., xml retrieval)]"
NEW_DOCS = (
    "<a><sec>xml retrieval advances</sec></a>",
    "<a><sec>retrieval of xml fragments</sec></a>",
    "<a><sec>storage for xml retrieval</sec></a>",
)


def serve(engine, **overrides):
    settings = dict(workers=2, cache_capacity=0, autopilot_interval=None)
    settings.update(overrides)
    return QueryService(engine, ServiceConfig(**settings))


def counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_the_engine_is_shard_zero_and_nothing_is_rebuilt(monkeypatch):
    engine = build_engine(*DOCS)
    builds = [counting(monkeypatch, BlockedElements, "rebuild"),
              counting(monkeypatch, BlockedPostings, "rebuild"),
              counting(monkeypatch, PartitionSummary, "_build")]
    with serve(engine) as service:
        coordinator = service.engine
        assert isinstance(coordinator, ShardedEngine)
        (shard,) = coordinator.shards
        assert shard.engine is engine
        assert len(shard.group) == 1
        assert coordinator.collection is engine.collection
        assert coordinator.summary is engine.summary
        assert coordinator.scorer is engine.scorer
        assert coordinator.cost_model is engine.cost_model
        assert builds == [[], [], []]


def test_one_translation_per_request(monkeypatch):
    engine = build_engine(*DOCS)
    with serve(engine) as service:
        translated = service.engine.translate(QUERY)
        assert translated.source is translated.per_shard[0]
        calls = []
        original = nexi_translate.translate_query

        def translate_query(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.retrieval.engine.translate_query",
                            translate_query)
        monkeypatch.setattr("repro.shard.engine.translate_query",
                            translate_query)
        service.search(QUERY, k=3, method="era")
        assert calls == [engine.summary]


def test_ingests_register_each_document_once():
    engine = build_engine(*DOCS)
    with serve(engine, cache_capacity=16) as service:
        for count, xml in enumerate(NEW_DOCS, start=1):
            reply = service.ingest(xml)
            assert reply["docid"] == len(DOCS) + count - 1
            assert reply["epoch"] == count
        stats = service.stats()
        assert stats["engine"]["documents"] == len(DOCS) + len(NEW_DOCS)
        assert stats["engine"]["num_shards"] == 1
        (row,) = stats["shards"]
        assert row["documents"] == len(DOCS) + len(NEW_DOCS)
        assert row["epoch"] == len(NEW_DOCS)
        payload = service.search(QUERY, k=10, method="era")
        assert payload["epoch"] == len(NEW_DOCS)
        assert type(payload["epoch"]) is int
        assert payload["shards"]["probed"] == 1
        found = {hit["docid"] for hit in payload["hits"]}
        assert found >= {len(DOCS), len(DOCS) + 1, len(DOCS) + 2}


def test_a_forced_compact_keeps_the_answers():
    engine = build_engine(*DOCS)
    with serve(engine, auto_compact=False) as service:
        service.search(QUERY, k=5, method="merge")  # builds the ERPLs
        for xml in NEW_DOCS:
            service.ingest(xml)
        before = service.search(QUERY, k=5, method="merge")
        assert service.stats()["deltas"]["delta_runs"] > 0
        assert service.compact(force=True)["segments_compacted"] > 0
        after = service.search(QUERY, k=5, method="merge")
        assert service.stats()["deltas"]["delta_runs"] == 0
        assert after["hits"] == before["hits"]
        assert after["shards"]["per_shard"][0]["hits"] == len(after["hits"])


@pytest.mark.parametrize("method", ["era", "merge", "ta"])
def test_payload_cost_is_the_request_meter_delta(method):
    """The payload's ``cost`` is what the request's meter charged — the
    number a ``ShardedEngine(collection, 1)`` reports for the cell, not
    the bare engine's sum of clause results."""
    nexi = PAPER_QUERIES[202].nexi

    def collection():
        return SyntheticIEEECorpus(num_docs=40, seed=42).build()

    alias = AliasMapping.inex_ieee()
    served = collection()
    engine = TrexEngine(served, IncomingSummary(served, alias=alias))
    reference = ShardedEngine(collection(), 1, alias=alias)
    reference.evaluate(nexi, k=10, method=method)  # builds, warms the pool
    snapshot = reference.cost_model.snapshot()
    charged = reference.evaluate(nexi, k=10, method=method).stats.cost
    assert charged == reference.cost_model.since(snapshot).total_cost
    with serve(engine, workers=1) as service:
        service.search(nexi, 10, method)
        payload = service.search(nexi, 10, method)
    assert payload["cost"] == round(charged, 3)


def catalog_image(engine):
    """Every resident segment with its runs' bytes."""
    catalog = engine.catalog
    return [(segment.segment_id, segment.kind, segment.term, segment.scope,
             [run.to_bytes() for run in catalog.runs_for(segment)])
            for segment in catalog.segments()]


@pytest.mark.parametrize("ingest_first", [False, True],
                         ids=["built", "with-delta-runs"])
def test_followers_start_from_the_adopted_catalog(ingest_first):
    """Adopted with replicas, an engine that already holds segments
    (here with delta runs from an ingest) hands its catalog to every
    follower, so a read that lands on one needs nothing it lacks."""
    engine = build_engine(*DOCS)
    engine.evaluate(QUERY, k=5, method="merge")  # materializes the ERPLs
    engine.evaluate(QUERY, k=5, method="ta")  # and the RPLs
    if ingest_first:
        engine.add_document(NEW_DOCS[0])
        assert engine.catalog.delta_snapshot()["delta_runs"] > 0
    expected = {method: engine.evaluate(QUERY, k=5, method=method).hits
                for method in ("merge", "auto")}
    with serve(engine, replicas=2, materialize_on_demand=False) as service:
        group = service.engine.shards[0].group
        assert group.leader.engine is engine
        leader = catalog_image(engine)
        assert leader and all(len(runs) == 1 for *_, runs in leader)
        for replica in group.replicas:
            assert catalog_image(replica.engine) == leader
            for method, hits in expected.items():
                result = replica.engine.evaluate(QUERY, k=5, method=method)
                assert result.hits == hits
                assert result.stats.method == "merge"
        group.kill(0)  # every read now lands on the follower
        payload = service.search(QUERY, k=5, method="merge", use_cache=False)
        assert [(hit["docid"], hit["score"]) for hit in payload["hits"]] == [
            (hit.docid, round(hit.score, 6)) for hit in expected["merge"]]
