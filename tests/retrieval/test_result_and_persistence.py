"""Tests for result containers and engine/catalog persistence."""

import pytest

from repro.corpus import AliasMapping, Collection, SyntheticIEEECorpus
from repro.index import IndexCatalog, RplEntry
from repro.retrieval import METHODS, EvaluationStats, ResultSet, TrexEngine
from repro.scoring import ScoredHit
from repro.shard import ShardedEngine
from repro.storage import free_cost_model
from repro.summary import IncomingSummary


class TestEvaluationStats:
    def test_read_entire_lists(self):
        stats = EvaluationStats(method="ta",
                                list_depths={"a": 10, "b": 5},
                                list_lengths={"a": 10, "b": 5})
        assert stats.read_entire_lists()
        stats.list_depths["b"] = 4
        assert not stats.read_entire_lists()

    def test_read_entire_lists_empty(self):
        assert not EvaluationStats(method="x").read_entire_lists()

    def test_merge_with_accumulates(self):
        a = EvaluationStats(method="ta", cost=10.0, ideal_cost=5.0,
                            list_depths={"x": 3}, list_lengths={"x": 10},
                            rows_skipped=1, candidates=2, blocks_read=4,
                            blocks_decoded=4, blocks_skipped=1,
                            entries_decoded=40)
        b = EvaluationStats(method="ta", cost=7.0, ideal_cost=3.0,
                            blocks_read=6, blocks_decoded=5,
                            blocks_skipped=2, entries_decoded=50,
                            list_depths={"x": 2, "y": 4},
                            list_lengths={"y": 8},
                            rows_skipped=2, candidates=5, early_stop=True)
        a.merge_with(b)
        # A cost is its request's meter delta: merging never sums one.
        assert a.cost == 10.0 and a.ideal_cost == 5.0
        assert (a.blocks_read, a.blocks_decoded, a.blocks_skipped,
                a.entries_decoded) == (4, 4, 1, 40)
        assert a.list_depths == {"x": 5, "y": 4}
        assert a.list_lengths == {"x": 10, "y": 8}
        assert a.rows_skipped == 3 and a.candidates == 7
        assert a.early_stop


class TestResultSet:
    def make(self):
        hits = [ScoredHit(3.0, 0, 10, sid=1, length=2),
                ScoredHit(2.0, 1, 20, sid=2, length=4)]
        return ResultSet(hits=hits, stats=EvaluationStats(method="merge"), k=5)

    def test_sequence_protocol(self):
        result = self.make()
        assert len(result) == 2
        assert result[0].score == 3.0
        assert [h.score for h in result] == [3.0, 2.0]

    def test_top(self):
        assert len(self.make().top(1)) == 1

    def test_accessors(self):
        result = self.make()
        assert result.element_keys() == [(0, 10), (1, 20)]
        assert result.scores() == [3.0, 2.0]


class TestCatalogPersistence:
    def entries(self):
        return [RplEntry(3.0, 1, 0, 10, 5), RplEntry(1.0, 2, 1, 10, 5)]

    def test_round_trip(self, tmp_path):
        catalog = IndexCatalog(cost_model=free_cost_model())
        seg_a = catalog.add_rpl_segment("xml", self.entries(), scope={1, 2})
        seg_b = catalog.add_erpl_segment("db", self.entries(), scope=None)
        catalog.save(str(tmp_path))

        fresh = IndexCatalog(cost_model=free_cost_model())
        fresh.load(str(tmp_path))
        assert fresh.total_bytes == catalog.total_bytes
        found_a = fresh.find_segment("rpl", "xml", {1})
        assert found_a is not None and found_a.scope == frozenset({1, 2})
        found_b = fresh.find_segment("erpl", "db", {99})
        assert found_b is not None and found_b.is_universal
        assert (fresh.segment_entries(found_a)
                == catalog.segment_entries(seg_a))
        assert (fresh.segment_entries(found_b)
                == catalog.segment_entries(seg_b))

    def test_segment_ids_continue_after_load(self, tmp_path):
        catalog = IndexCatalog(cost_model=free_cost_model())
        first = catalog.add_rpl_segment("xml", self.entries())
        catalog.save(str(tmp_path))
        fresh = IndexCatalog(cost_model=free_cost_model())
        fresh.load(str(tmp_path))
        second = fresh.add_rpl_segment("db", self.entries())
        assert second.segment_id > first.segment_id


class TestEnginePersistence:
    def test_save_load_round_trip(self, tmp_path):
        collection = SyntheticIEEECorpus(num_docs=5, seed=61).build()
        summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
        engine = TrexEngine(collection, summary)
        engine.materialize_for_query("//sec[about(., information)]")
        query = "//sec[about(., information)]"
        expected = engine.evaluate(query, k=5, method="merge")

        engine.save_indexes(str(tmp_path / "idx"))

        fresh = TrexEngine(collection, summary)
        fresh.load_indexes(str(tmp_path / "idx"))
        # evaluation never builds: the loaded segments alone answer
        result = fresh.evaluate(query, k=5, method="merge")
        assert ([(h.element_key(), round(h.score, 9)) for h in result.hits]
                == [(h.element_key(), round(h.score, 9)) for h in expected.hits])

    def test_round_trip_after_incremental_add(self, tmp_path):
        collection = SyntheticIEEECorpus(num_docs=4, seed=61).build()
        summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
        engine = TrexEngine(collection, summary)
        added = engine.add_document(
            "<article><sec>information retrieval for xml corpora"
            "</sec></article>")
        query = "//sec[about(., information retrieval)]"
        # Refresh corpus statistics so the segments saved below carry
        # the same scores a fresh engine (whose scorer sees the post-add
        # collection) would compute.
        ShardedEngine.from_engine(engine, 1).rebuild_scorer()
        engine.materialize_for_query(query)
        expected = engine.evaluate(query, k=None, method="era")
        assert added.docid in {hit.docid for hit in expected.hits}

        engine.save_indexes(str(tmp_path / "idx"))

        # The fresh engine shares the (mutated) collection and summary —
        # persistence covers the index tables, which must reflect the
        # incrementally added document.
        fresh = TrexEngine(collection, summary)
        fresh.load_indexes(str(tmp_path / "idx"))
        reference = [(h.element_key(), round(h.score, 9))
                     for h in expected.hits]
        for method in sorted(set(METHODS) - {"auto"}):
            k = len(expected.hits) if method in ("ta", "wand") else None
            result = fresh.evaluate(query, k=k, method=method)
            assert [(h.element_key(), round(h.score, 9))
                    for h in result.hits] == reference, method

    @pytest.mark.parametrize("backend", ("pager", "sqlite", "mmap"))
    def test_ingest_save_load_query_round_trips_the_base_indexes(
            self, tmp_path, backend):
        documents = list(SyntheticIEEECorpus(num_docs=5, seed=61).build())
        engine = TrexEngine(Collection.from_documents(documents[:4]),
                            fragment_size=8, block_size=16, backend=backend)
        engine.add_document(documents[4])
        query = "//sec[about(., information retrieval)]"
        expected = engine.evaluate(query, k=None, method="era")
        engine.save_indexes(str(tmp_path / "idx"))

        # Same documents, different physical layout (default sizes): the
        # load replaces it wholesale, sizes included.
        loaded = TrexEngine(Collection.from_documents(documents),
                            scorer=engine.scorer)
        assert (loaded.blocked_postings.to_bytes()
                != engine.blocked_postings.to_bytes())
        loaded.load_indexes(str(tmp_path / "idx"))
        assert loaded.backend == backend
        for name in ("blocked_elements", "blocked_postings"):
            assert (getattr(loaded, name).to_bytes()
                    == getattr(engine, name).to_bytes())
        assert loaded.blocked_postings.chunk == 8
        result = loaded.evaluate(query, k=None, method="era")
        assert result.hits == expected.hits
        assert result.stats.cost == pytest.approx(expected.stats.cost)

    def test_save_is_not_charged(self, tmp_path):
        collection = SyntheticIEEECorpus(num_docs=3, seed=61).build()
        engine = TrexEngine(collection)
        before = engine.cost_model.total_cost
        engine.save_indexes(str(tmp_path / "idx"))
        engine.load_indexes(str(tmp_path / "idx"))
        assert engine.cost_model.total_cost == before


class TestCatalogPersistenceErrors:
    def test_empty_segments_file_rejected(self, tmp_path):
        catalog = IndexCatalog(cost_model=free_cost_model())
        catalog.add_rpl_segment("xml", [RplEntry(1.0, 1, 0, 10, 5)])
        catalog.save(str(tmp_path))
        (tmp_path / "segments.tsv").write_text("")
        from repro.errors import StorageError
        fresh = IndexCatalog(cost_model=free_cost_model())
        with pytest.raises(StorageError):
            fresh.load(str(tmp_path))

    def test_missing_directory_rejected(self, tmp_path):
        fresh = IndexCatalog(cost_model=free_cost_model())
        with pytest.raises(OSError):
            fresh.load(str(tmp_path / "nope"))

    def test_scoped_round_trip_preserves_lookup_semantics(self, tmp_path):
        catalog = IndexCatalog(cost_model=free_cost_model())
        catalog.add_rpl_segment("xml", [RplEntry(1.0, 1, 0, 10, 5)], scope={1})
        catalog.add_rpl_segment("xml", [RplEntry(1.0, 2, 0, 20, 5)], scope=None)
        catalog.save(str(tmp_path))
        fresh = IndexCatalog(cost_model=free_cost_model())
        fresh.load(str(tmp_path))
        # scoped segment preferred when it covers; universal otherwise
        assert not fresh.find_segment("rpl", "xml", {1}).is_universal
        assert fresh.find_segment("rpl", "xml", {2}).is_universal
