"""LSM delta runs: golden equivalence, compaction, and persistence.

The bar (ISSUE 5): after ``add_document`` appends delta runs, every
strategy at every k returns results identical to a from-scratch engine
whose segments were built over the final collection with the same
scorer snapshot; compaction then folds the runs into bases that are
byte-identical to those from-scratch segments.
"""

import pytest

from repro.build import BuildPlan, BuildTarget
from repro.corpus import Collection, Tokenizer, parse_document
from repro.index.catalog import IndexCatalog
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

BASE = (
    "<a><sec>xml retrieval systems</sec><sec>database theory</sec></a>",
    "<a><sec>xml database</sec><par>retrieval of xml data</par></a>",
    "<a><sec>retrieval models for xml</sec></a>",
    "<a><par>database systems</par></a>",
)
EXTRA = (
    "<a><sec>xml xml indexing</sec></a>",
    "<a><sec>database retrieval pipelines</sec></a>",
    "<a><par>xml theory</par><sec>systems</sec></a>",
)
TERMS = ("xml", "retrieval", "database", "systems", "theory")
QUERY = "//sec[about(., xml retrieval database)]"


def make_engine():
    tokenizer = Tokenizer(stopwords=())
    collection = Collection.from_documents(
        parse_document(text, docid, tokenizer=tokenizer)
        for docid, text in enumerate(BASE))
    return TrexEngine(collection, IncomingSummary(collection),
                      tokenizer=tokenizer)


def materialize_all(engine):
    engine.build_segments([BuildTarget(kind, term) for term in TERMS
                           for kind in ("rpl", "erpl")])


def compact(engine, **options):
    """Fold delta runs through the one-shard coordinator over *engine*."""
    return ShardedEngine.from_engine(engine, 1).compact_segments(**options)


def delta_engine():
    """Segments built first, documents ingested after -> delta runs."""
    engine = make_engine()
    materialize_all(engine)
    for text in EXTRA:
        engine.add_document(text)
    return engine


def fresh_engine():
    """Documents ingested first, segments built after -> single runs.

    Both engines freeze scorer statistics over BASE at construction, so
    their stored scores are directly comparable.
    """
    engine = make_engine()
    for text in EXTRA:
        engine.add_document(text)
    materialize_all(engine)
    return engine


def ranking(result):
    return [(hit.element_key(), round(hit.score, 9)) for hit in result.hits]


class TestDeltaGoldenEquivalence:
    @pytest.mark.parametrize("method", ["era", "ta", "merge"])
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_delta_merged_results_match_fresh_build(self, method, k):
        delta = delta_engine()
        fresh = fresh_engine()
        assert delta.catalog.delta_snapshot()["delta_runs"] > 0
        assert ranking(delta.evaluate(QUERY, k=k, method=method)) == \
            ranking(fresh.evaluate(QUERY, k=k, method=method))

    def test_base_segments_survive_ingest(self):
        engine = make_engine()
        _report, (segment,) = engine.build_plan(
            BuildPlan((BuildTarget("rpl", "xml"),)))
        before_bytes = engine.catalog.blocks_for(segment).to_bytes()
        for text in EXTRA:
            engine.add_document(text)
        # The base run is untouched; growth went into delta runs.
        survivor = engine.catalog.get_segment(segment.segment_id)
        assert engine.catalog.runs_for(survivor)[0].to_bytes() == before_bytes
        assert engine.catalog.delta_run_count(segment.segment_id) > 0

    def test_epoch_bumps_on_ingest_not_on_compaction(self):
        engine = delta_engine()
        epoch_after_ingest = engine.epoch
        assert epoch_after_ingest == len(EXTRA)
        compacted = compact(engine, force=True)
        assert compacted > 0
        assert engine.epoch == epoch_after_ingest


class TestCompaction:
    def test_compacted_bytes_identical_to_fresh_build(self):
        delta = delta_engine()
        fresh = fresh_engine()
        assert compact(delta, force=True) > 0
        snapshot = delta.catalog.delta_snapshot()
        assert snapshot["delta_runs"] == 0
        assert snapshot["segments_with_deltas"] == 0
        assert snapshot["delta_runs_folded"] > 0
        for kind in ("rpl", "erpl"):
            for d_seg in delta.catalog.segments(kind):
                f_seg = next(s for s in fresh.catalog.segments(kind)
                             if s.term == d_seg.term and s.scope == d_seg.scope)
                assert delta.catalog.blocks_for(d_seg).to_bytes() == \
                    fresh.catalog.blocks_for(f_seg).to_bytes(), \
                    (kind, d_seg.term)

    def test_ratio_gate_spares_small_deltas(self):
        engine = make_engine()
        engine.build_segments([BuildTarget("rpl", "xml")])
        engine.add_document("<a><sec>xml</sec></a>")
        # One tiny delta against a larger base: a huge ratio threshold
        # must leave it alone, force must fold it.
        assert compact(engine, ratio=1000.0) == 0
        assert engine.catalog.delta_snapshot()["delta_runs"] == 1
        assert compact(engine, force=True) == 1
        assert engine.catalog.delta_snapshot()["delta_runs"] == 0

    def test_results_stable_across_compaction(self):
        engine = delta_engine()
        before = {
            (method, k): ranking(engine.evaluate(QUERY, k=k, method=method))
            for method in ("era", "ta", "merge") for k in (1, 10)
        }
        compact(engine, force=True)
        for (method, k), reference in before.items():
            assert ranking(engine.evaluate(QUERY, k=k,
                                           method=method)) == reference


class TestDeltaPersistence:
    def test_catalog_roundtrip_preserves_delta_runs(self, tmp_path):
        engine = delta_engine()
        directory = str(tmp_path / "catalog")
        engine.catalog.save(directory)

        loaded = IndexCatalog(cost_model=engine.cost_model,
                              block_size=engine.block_size)
        loaded.load(directory)
        originals = list(engine.catalog.segments())
        restored = list(loaded.segments())
        assert [(s.segment_id, s.kind, s.term, s.entry_count)
                for s in restored] == \
            [(s.segment_id, s.kind, s.term, s.entry_count)
             for s in originals]
        for original in originals:
            assert loaded.delta_run_count(original.segment_id) == \
                engine.catalog.delta_run_count(original.segment_id)
            assert loaded.segment_entries(
                loaded.get_segment(original.segment_id)) == \
                engine.catalog.segment_entries(original)

    def test_engine_roundtrip_with_deltas(self, tmp_path):
        engine = delta_engine()
        reference = ranking(engine.evaluate(QUERY, k=10, method="ta"))
        directory = str(tmp_path / "indexes")
        engine.save_indexes(directory)

        other = make_engine()
        for text in EXTRA:
            other.add_document(text)
        other.load_indexes(directory)
        assert other.catalog.delta_snapshot()["delta_runs"] > 0
        assert ranking(other.evaluate(QUERY, k=10, method="ta")) == reference
