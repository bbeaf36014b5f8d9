"""Golden invariant: query results are byte-identical across every
storage backend, compression codec, shard count and replica count."""

import pytest

from repro.backend import BACKEND_NAMES, COMPRESSIONS
from repro.corpus import Collection
from repro.replica import ReplicaGroup
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

from .conftest import QUERIES, golden_answers, make_engine

MATRIX = [(backend, compression)
          for backend in BACKEND_NAMES for compression in COMPRESSIONS]


@pytest.fixture(scope="session")
def oracle_answers(collection):
    """The reference projection: pager backend, no compression."""
    return golden_answers(make_engine(collection))


def sharded_answers(engine):
    answers = {}
    for nexi, k in QUERIES:
        for method in ("era", "ta", "merge"):
            result = engine.evaluate(nexi, k=k, method=method, mode="flat")
            answers[(nexi, method)] = [
                (hit.element_key(), round(hit.score, 9))
                for hit in result.hits]
    return answers


class TestSingleEngineMatrix:
    @pytest.mark.parametrize(("backend", "compression"), MATRIX)
    def test_results_match_the_oracle(self, backend, compression,
                                      collection, oracle_answers):
        engine = make_engine(collection, backend=backend,
                             compression=compression)
        assert golden_answers(engine) == oracle_answers

    @pytest.mark.parametrize(("backend", "compression"), MATRIX)
    def test_save_load_round_trip(self, backend, compression, collection,
                                  oracle_answers, tmp_path):
        engine = make_engine(collection, backend=backend,
                             compression=compression)
        golden_answers(engine)  # materialize segments before saving
        engine.save_indexes(str(tmp_path / "idx"))

        fresh = make_engine(collection)  # defaults; store dictates both
        fresh.load_indexes(str(tmp_path / "idx"))
        assert fresh.backend == backend
        assert fresh.compression == compression
        assert golden_answers(fresh) == oracle_answers

    def test_compressed_store_round_trips_through_recompression(
            self, collection, oracle_answers, tmp_path):
        engine = make_engine(collection, backend="pager",
                             compression="zlib")
        golden_answers(engine)
        engine.save_indexes(str(tmp_path / "idx"))
        fresh = make_engine(collection)
        fresh.load_indexes(str(tmp_path / "idx"))
        for segment in fresh.catalog.segments():
            assert segment.compression == "zlib"
        assert golden_answers(fresh) == oracle_answers


class TestShardedMatrix:
    @pytest.mark.parametrize(("backend", "compression"), MATRIX)
    @pytest.mark.parametrize(("shards", "replicas"),
                             [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_results_match_the_oracle(self, backend, compression, shards,
                                      replicas, collection, oracle_answers):
        engine = ShardedEngine(collection, shards, replicas=replicas,
                               backend=backend, compression=compression)
        assert sharded_answers(engine) == oracle_answers

    def test_sharded_save_load_adopts_the_store(self, collection,
                                                oracle_answers, tmp_path):
        engine = ShardedEngine(collection, 2, replicas=2,
                               backend="sqlite", compression="zlib")
        sharded_answers(engine)
        engine.save_indexes(str(tmp_path / "idx"))

        fresh = ShardedEngine(collection, 2, replicas=2)
        fresh.load_indexes(str(tmp_path / "idx"))
        assert fresh.backend == "sqlite"
        assert fresh.compression == "zlib"
        assert sharded_answers(fresh) == oracle_answers


class TestCompressedReplication:
    def build_group(self, collection, num_replicas=2):
        engines = []
        for rank in range(num_replicas):
            replica_collection = (
                collection if rank == 0 else
                Collection.from_documents(collection,
                                          name=f"{collection.name}.r{rank}"))
            engines.append(TrexEngine(replica_collection,
                                      IncomingSummary(replica_collection),
                                      auto_materialize=False,
                                      compression="zlib"))
        return ReplicaGroup(engines, name="zgroup")

    def warm(self, group):
        engine = group.leader.engine
        nexi, _k = QUERIES[0]
        translated = engine.translate(nexi)
        report = group.warm_segments(
            list(engine.missing_segments(translated, ("rpl", "erpl"))))
        assert report.built > 0
        return translated

    def assert_images_identical(self, group):
        leader = group.leader.engine.catalog
        for replica in group.replicas[1:]:
            follower = replica.engine.catalog
            for segment in leader.segments():
                mirrored = follower.get_segment(segment.segment_id)
                assert mirrored.compression == "zlib"
                assert (follower.blocks_for(mirrored).to_bytes()
                        == leader.blocks_for(segment).to_bytes())

    def test_shipped_images_carry_the_codec_tag(self, collection):
        group = self.build_group(collection)
        self.warm(group)
        leader = group.leader.engine.catalog
        for segment in leader.segments():
            assert segment.compression == "zlib"
            assert leader.blocks_for(segment).to_bytes()[:5] == b"TRXC\x01"
        self.assert_images_identical(group)

    def test_follower_catch_up_installs_compressed_images(self, collection):
        group = self.build_group(collection)
        group.detach(1)
        self.warm(group)  # follower misses every install record
        follower = group.replicas[1]
        assert follower.applied_offset < group.log.head

        replayed = group.attach(1)
        assert replayed > 0
        self.assert_images_identical(group)

        nexi, k = QUERIES[0]
        want = group.leader.engine.evaluate(nexi, k=k, method="ta",
                                            mode="flat")
        got = follower.engine.evaluate(nexi, k=k, method="ta", mode="flat")
        assert [(h.element_key(), round(h.score, 9)) for h in got.hits] == \
            [(h.element_key(), round(h.score, 9)) for h in want.hits]
