"""Behavioural tests specific to TA/ITA and Merge."""

import pytest

from repro.index import IndexCatalog, RplEntry
from repro.retrieval import merge_retrieve, ta_retrieve
from repro.storage import CostModel


def skewed_catalog(n=200, sids=(1,)):
    """A catalog whose 'xml' RPL has sharply decaying scores."""
    catalog = IndexCatalog(cost_model=CostModel())
    entries = [RplEntry(100.0 / (rank + 1), sids[rank % len(sids)],
                        rank // 10, 10 + (rank % 10) * 20, 5)
               for rank in range(n)]
    entries.sort(key=lambda e: (-e.score, e.docid, e.endpos))
    rpl = catalog.add_rpl_segment("xml", entries)
    erpl = catalog.add_erpl_segment("xml", entries)
    return catalog, rpl, erpl


class TestTaBehaviour:
    def test_invalid_k(self):
        catalog, rpl, _ = skewed_catalog()
        with pytest.raises(ValueError):
            ta_retrieve(catalog, {"xml": rpl}, {1}, 0, CostModel())

    def test_early_stop_on_skewed_scores(self):
        catalog, rpl, _ = skewed_catalog(n=500)
        model = catalog.cost_model
        hits, stats = ta_retrieve(catalog, {"xml": rpl}, {1}, 1, model)
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(100.0)
        assert stats.early_stop
        assert stats.list_depths["xml"] < 500  # did not read the whole list

    def test_exhaustive_when_k_large(self):
        catalog, rpl, _ = skewed_catalog(n=100)
        model = catalog.cost_model
        hits, stats = ta_retrieve(catalog, {"xml": rpl}, {1}, 100, model)
        assert len(hits) == 100
        assert stats.read_entire_lists()

    def test_skipping_costs_but_filters(self):
        catalog, rpl, _ = skewed_catalog(n=100, sids=(1, 2))
        model = catalog.cost_model
        hits, stats = ta_retrieve(catalog, {"xml": rpl}, {1}, 100, model)
        assert all(h.sid == 1 for h in hits)
        assert stats.rows_skipped == 50

    def _two_term_uncorrelated_catalog(self):
        """Two decaying-score lists over the same elements in
        uncorrelated orders: a top element of one list resolves only
        deep into the other, so TA must read nearly everything — the
        paper's 'TA reads the entire RPLs' regime (§5.2)."""
        catalog = IndexCatalog(cost_model=CostModel())
        segments = {}
        for t, term in enumerate(("alpha", "beta")):
            entries = []
            for rank in range(400):
                element = rank if t == 0 else (rank * 173 + 5) % 400
                entries.append(RplEntry(1.0 / (1.0 + rank / 50.0), 1,
                                        element // 10,
                                        10 + (element % 10) * 20, 5))
            entries.sort(key=lambda e: (-e.score, e.docid, e.endpos))
            segments[term] = catalog.add_rpl_segment(term, entries)
        return catalog, segments

    def test_uncorrelated_lists_force_deep_reads(self):
        """§5.2: sum aggregation over uncorrelated lists reads deep."""
        catalog, segments = self._two_term_uncorrelated_catalog()
        model = catalog.cost_model
        _, stats = ta_retrieve(catalog, segments, {1}, 10, model)
        for term, depth in stats.list_depths.items():
            # far deeper than the k=10 a correlated ordering would need
            assert depth >= 0.5 * stats.list_lengths[term]

    def test_heap_cost_decreases_with_k(self):
        """§5.2: in the deep-read regime, heap removals (≈ inserts − k)
        shrink as k grows, so TA's heap overhead falls with k."""
        def heap_removes(k):
            catalog, segments = self._two_term_uncorrelated_catalog()
            model = catalog.cost_model
            model.reset()
            ta_retrieve(catalog, segments, {1}, k, model)
            return model.counters.heap_removes

        assert heap_removes(5) > heap_removes(380)

    def test_ideal_cost_excludes_heap(self):
        catalog, rpl, _ = skewed_catalog(n=100)
        model = catalog.cost_model
        snapshot = model.snapshot()
        ta_retrieve(catalog, {"xml": rpl}, {1}, 10, model)
        spent = model.since(snapshot)
        assert spent.ideal_cost < spent.total_cost

    def test_two_lists_aggregation(self):
        catalog = IndexCatalog(cost_model=CostModel())
        a = [RplEntry(3.0, 1, 0, 10, 5), RplEntry(1.0, 1, 0, 30, 5)]
        b = [RplEntry(2.0, 1, 0, 10, 5), RplEntry(1.5, 1, 0, 50, 5)]
        seg_a = catalog.add_rpl_segment("alpha", a)
        seg_b = catalog.add_rpl_segment("beta", b)
        hits, _ = ta_retrieve(catalog, {"alpha": seg_a, "beta": seg_b}, {1},
                              3, catalog.cost_model)
        by_key = {h.element_key(): h.score for h in hits}
        assert by_key[(0, 10)] == pytest.approx(5.0)  # appears in both lists
        assert by_key[(0, 30)] == pytest.approx(1.0)
        assert by_key[(0, 50)] == pytest.approx(1.5)

    def test_term_weights(self):
        catalog = IndexCatalog(cost_model=CostModel())
        seg = catalog.add_rpl_segment("xml", [RplEntry(2.0, 1, 0, 10, 5)])
        hits, _ = ta_retrieve(catalog, {"xml": seg}, {1}, 1,
                              catalog.cost_model,
                              term_weights={"xml": 2.0})
        assert hits[0].score == pytest.approx(4.0)


class TestMergeBehaviour:
    def test_merge_combines_same_position_entries(self):
        catalog = IndexCatalog(cost_model=CostModel())
        a = [RplEntry(3.0, 1, 0, 10, 5)]
        b = [RplEntry(2.0, 1, 0, 10, 5), RplEntry(1.0, 1, 1, 10, 5)]
        seg_a = catalog.add_erpl_segment("alpha", a)
        seg_b = catalog.add_erpl_segment("beta", b)
        hits, stats = merge_retrieve(catalog, {"alpha": seg_a, "beta": seg_b},
                                     {1}, catalog.cost_model)
        by_key = {h.element_key(): h.score for h in hits}
        assert by_key[(0, 10)] == pytest.approx(5.0)
        assert by_key[(1, 10)] == pytest.approx(1.0)
        assert stats.method == "merge"

    def test_merge_sorted_output(self):
        catalog, _, erpl = skewed_catalog(n=50)
        hits, _ = merge_retrieve(catalog, {"xml": erpl}, {1},
                                 catalog.cost_model)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_merge_reads_only_requested_sids(self):
        catalog, _, erpl = skewed_catalog(n=100, sids=(1, 2))
        hits, stats = merge_retrieve(catalog, {"xml": erpl}, {1},
                                     catalog.cost_model)
        assert len(hits) == 50
        assert stats.list_depths["xml"] == 50  # half the entries never read

    def test_merge_empty_sids(self):
        catalog, _, erpl = skewed_catalog()
        hits, _ = merge_retrieve(catalog, {"xml": erpl}, set(),
                                 catalog.cost_model)
        assert hits == []

    def test_merge_charges_final_sort(self):
        catalog, _, erpl = skewed_catalog(n=64)
        model = catalog.cost_model
        model.reset()
        merge_retrieve(catalog, {"xml": erpl}, {1}, model)
        assert model.counters.sort_elements > 0
