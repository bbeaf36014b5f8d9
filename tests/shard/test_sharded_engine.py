"""ShardedEngine behavior beyond the golden invariant: ingestion
routing, the summed epoch, deadlines/fail-soft, segment warm-up,
persistence and introspection."""

import pytest

from repro.corpus import AliasMapping, Collection, Tokenizer, parse_document
from repro.errors import RetrievalError, ShardError, ShardTimeoutError
from repro.retrieval import TrexEngine
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardedEngine
from repro.summary import AKIndex, IncomingSummary, TagSummary

from tests.shard.conftest import hit_keys

QUERY = "//sec[about(., xml retrieval)]"

DOCS = (
    "<article><sec>xml retrieval systems</sec></article>",
    "<article><sec>xml databases and storage</sec></article>",
    "<article><sec>retrieval models ranking</sec></article>",
    "<article><sec>storage engines btree pages</sec></article>",
    "<article><sec>xml query evaluation</sec></article>",
    "<article><sec>retrieval evaluation campaigns</sec></article>",
)


@pytest.fixture()
def tokenizer():
    return Tokenizer(stopwords=())


@pytest.fixture()
def collection(tokenizer):
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tokenizer)
        for docid, text in enumerate(DOCS))


@pytest.fixture()
def engine(collection, tokenizer):
    return ShardedEngine(collection, 3, tokenizer=tokenizer)


class TestConstruction:
    def test_documents_route_by_policy(self, engine):
        for shard in engine.shards:
            for docid in shard.engine.collection.docids:
                assert engine.partitioner.shard_of(docid) == shard.index

    def test_from_engine_preserves_answers(self, collection, tokenizer):
        mono = TrexEngine(collection, IncomingSummary(collection),
                          tokenizer=tokenizer)
        want = hit_keys(mono.evaluate(QUERY, k=5, method="era").hits)
        sharded = ShardedEngine.from_engine(mono, 2)
        assert hit_keys(sharded.evaluate(QUERY, k=5, method="era").hits) == want

    @pytest.mark.parametrize("variant", ["tag", "ak2"])
    def test_sharding_keeps_the_summary_kind(self, ieee_collection,
                                             ieee_alias, variant):
        def summary_of(collection):
            if variant == "tag":
                return TagSummary(collection, alias=ieee_alias)
            return AKIndex(collection, k=2, alias=ieee_alias)

        engine = TrexEngine(ieee_collection, summary_of(ieee_collection))
        config = ServiceConfig(shards=2, replicas=2, cache_capacity=0,
                               autopilot_interval=None)
        with QueryService(engine, config) as service:
            sharded = service.engine
            summaries = [sharded.summary] + [
                replica.engine.summary for shard in sharded.shards
                for replica in shard.group.replicas]
            for summary in summaries:
                assert type(summary) is type(engine.summary)
                assert summary.name == engine.summary.name
                assert summary.alias is ieee_alias
            assert sharded.summary.sid_count == engine.summary.sid_count
            for nexi in ("//article//sec[about(., information retrieval)]",
                         "//sec[about(.//p, model checking)]"):
                engine.materialize_for_query(nexi)
                for method in ("era", "merge", "ta"):
                    want = [(hit.docid, hit.end_pos, hit.sid,
                             engine.summary.label(hit.sid),
                             round(hit.score, 6))
                            for hit in engine.evaluate(nexi, k=10,
                                                       method=method).hits]
                    got = [(hit["docid"], hit["end"], hit["sid"],
                            hit["label"], hit["score"])
                           for hit in service.search(nexi, 10,
                                                     method)["hits"]]
                    assert got == want, (nexi, method)

    def test_rejects_bad_shard_count(self, collection, tokenizer):
        with pytest.raises(ShardError):
            ShardedEngine(collection, 0, tokenizer=tokenizer)

    def test_rejects_bad_method_and_k(self, engine):
        with pytest.raises(RetrievalError):
            engine.evaluate(QUERY, method="quantum")
        with pytest.raises(RetrievalError):
            engine.evaluate(QUERY, k=0)


class TestEpochsAndIngestion:
    def test_epoch_is_the_sum_of_leader_epochs(self, engine):
        assert engine.epoch == 0
        engine.shards[1].engine.epoch += 2
        engine.shards[2].engine.epoch += 1
        assert engine.epoch == 3
        assert isinstance(engine.epoch, int)

    def test_ingest_bumps_only_owning_shard(self, engine, tokenizer):
        before = [shard.engine.epoch for shard in engine.shards]
        document = engine.add_document(
            "<article><sec>xml sharding experiments</sec></article>")
        after = [shard.engine.epoch for shard in engine.shards]
        owner = engine.partitioner.shard_of(document.docid)
        assert engine.epoch == sum(before) + 1
        changed = [i for i in range(engine.num_shards)
                   if after[i] != before[i]]
        assert changed == [owner]

    def test_ingested_document_is_searchable(self, engine):
        engine.add_document(
            "<article><sec>xml retrieval xml retrieval xml</sec></article>")
        engine.rebuild_scorer()
        hits = engine.evaluate(QUERY, k=3, method="era").hits
        assert hits
        assert hits[0].docid == len(DOCS)  # the new, very relevant doc

    def test_ingest_stays_golden(self, engine, collection, tokenizer):
        new_doc = "<article><sec>xml retrieval benchmarks</sec></article>"
        engine.add_document(new_doc)
        engine.rebuild_scorer()

        texts = DOCS + (new_doc,)
        fresh = Collection.from_documents(
            parse_document(text, docid, tokenizer=tokenizer)
            for docid, text in enumerate(texts))
        mono = TrexEngine(fresh, IncomingSummary(fresh), tokenizer=tokenizer)
        want = hit_keys(mono.evaluate(QUERY, k=10, method="era").hits)
        assert hit_keys(engine.evaluate(QUERY, k=10, method="era").hits) == want

    def test_rebuild_scorer_bumps_every_shard(self, engine):
        before = [shard.engine.epoch for shard in engine.shards]
        engine.rebuild_scorer()
        after = [shard.engine.epoch for shard in engine.shards]
        assert all(b > a for a, b in zip(before, after))
        assert engine.epoch == sum(before) + engine.num_shards


class TestDeadlines:
    def test_timeout_fail_soft_degrades(self, collection, tokenizer):
        engine = ShardedEngine(collection, 3, tokenizer=tokenizer,
                               shard_deadline=0.0, fail_soft=True)
        result = engine.evaluate(QUERY, k=5, method="era")
        assert result.stats.degraded
        assert result.stats.shards_timed_out == 3
        assert result.hits == []

    def test_timeout_fail_hard_raises(self, collection, tokenizer):
        engine = ShardedEngine(collection, 3, tokenizer=tokenizer,
                               shard_deadline=0.0, fail_soft=False)
        with pytest.raises(ShardTimeoutError) as excinfo:
            engine.evaluate(QUERY, k=5, method="era")
        assert excinfo.value.deadline == 0.0

    def test_no_deadline_never_degrades(self, engine):
        result = engine.evaluate(QUERY, k=5, method="era")
        assert not result.stats.degraded
        assert result.stats.shards_timed_out == 0


class TestSegments:
    def test_missing_segments_carry_shard_index(self, engine):
        translated = engine.translate(QUERY)
        missing = engine.missing_segments(translated, ("rpl",))
        assert missing
        for kind, term, sids, shard_index in missing:
            assert kind == "rpl"
            assert 0 <= shard_index < engine.num_shards

    def test_warm_segments_clears_missing(self, engine):
        translated = engine.translate(QUERY)
        missing = engine.missing_segments(translated, ("rpl",))
        report = engine.warm_segments(missing)
        assert report.built > 0
        assert engine.missing_segments(translated, ("rpl",)) == []

    def test_segment_count_aggregates_shards(self, engine):
        translated = engine.translate(QUERY)
        engine.warm_segments(engine.missing_segments(translated, ("rpl",)))
        assert engine.segment_count() == sum(
            len(list(shard.engine.catalog.segments()))
            for shard in engine.shards)


class TestPersistence:
    def test_save_load_round_trip(self, engine, collection, tokenizer,
                                  tmp_path):
        translated = engine.translate(QUERY)
        engine.warm_segments(engine.missing_segments(translated, ("rpl",)))
        want = hit_keys(engine.evaluate(QUERY, k=5, method="ta",
                                        mode="flat").hits)
        engine.save_indexes(str(tmp_path))

        fresh = ShardedEngine(collection, 3, tokenizer=tokenizer)
        fresh.load_indexes(str(tmp_path))
        ft = fresh.translate(QUERY)
        assert fresh.missing_segments(ft, ("rpl",)) == []
        assert hit_keys(fresh.evaluate(QUERY, k=5, method="ta",
                                       mode="flat").hits) == want


class TestIntrospection:
    def test_explain_reports_partition_and_local_methods(self, engine):
        plan = engine.explain(QUERY)
        assert plan["partition"]["num_shards"] == 3
        assert len(plan["shards"]) == 3
        for row in plan["shards"]:
            assert set(row["local_method"]) == {"nexi", "flat"}
            assert set(row["local_method"].values()) <= {"era", "ta", "merge"}

    def test_shard_snapshot_counts_probes(self, engine):
        engine.evaluate(QUERY, k=5, method="era")
        rows = engine.shard_snapshot()
        assert len(rows) == 3
        assert sum(row["probes"] for row in rows) == 3
        assert sum(row["documents"] for row in rows) == len(DOCS)

    def test_describe_is_json_shaped(self, engine):
        import json

        info = engine.describe()
        assert json.dumps(info)
        assert info["partition"]["policy"] == "hash"
