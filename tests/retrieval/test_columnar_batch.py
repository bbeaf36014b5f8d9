"""Batch granularity never changes what an iterator does.

Every iterator hands out decoded runs; the regression bar is *exact*
equivalence between a batch of n and n batches of one on fresh
identical state — same entries (full float equality), same
depth/skip/bound bookkeeping, and byte-identical cost-model charges.
Both single-run segments and LSM delta-run segments (the k-way-merged
read path) are held to the bar, as is ``ElementScorer.score_block``
against the scalar ``score``.
"""

import random

import pytest

from repro.corpus import Collection, M_POS, Tokenizer, parse_document
from repro.index import BlockedPostings, IndexCatalog, RplEntry
from repro.retrieval import ErplIterator, PostingIterator, RplIterator
from repro.scoring import BM25Scorer, LMImpactScorer, ScoringStats, TfIdfScorer
from repro.storage import CostModel, free_cost_model

QUERY_SIDS = {1, 2, 3}


def _descending_entries(n, seed, docid_base=0):
    """n RPL entries in descending-score order with score ties, sids
    both inside and outside QUERY_SIDS, unique (docid, endpos) keys."""
    rng = random.Random(seed)
    score = 90.0
    out = []
    for index in range(n):
        if rng.random() > 0.3:
            score -= rng.random() * 2.0  # ties when the guard fails
        out.append(RplEntry(score, rng.randrange(6),
                            docid_base + index // 4, (index % 4 + 1) * 10,
                            rng.randrange(1, 200)))
    return out


BASE = _descending_entries(40, seed=3)
DELTA_A = _descending_entries(9, seed=4, docid_base=100)
DELTA_B = _descending_entries(1, seed=5, docid_base=200)  # 1-entry run
# A run the sid filter rejects wholesale: the merged path must still
# walk (and charge for) it, contributing only skips.
DELTA_OUT = [RplEntry(50.0, 5, 300, 10, 7), RplEntry(0.5, 4, 301, 10, 7)]


def _single_run(model):
    catalog = IndexCatalog(cost_model=model, block_size=4)
    return catalog, catalog.add_rpl_segment("xml", BASE)


def _merged_runs(model):
    catalog = IndexCatalog(cost_model=model, block_size=4)
    segment = catalog.add_rpl_segment("xml", BASE)
    catalog.append_delta(segment.segment_id, DELTA_A)
    catalog.append_delta(segment.segment_id, DELTA_B)
    return catalog, catalog.append_delta(segment.segment_id, DELTA_OUT)


def _single_erpl(model):
    catalog = IndexCatalog(cost_model=model, block_size=4)
    return catalog, catalog.add_erpl_segment("xml", BASE)


def _merged_erpl(model):
    catalog = IndexCatalog(cost_model=model, block_size=4)
    segment = catalog.add_erpl_segment("xml", BASE)
    catalog.append_delta(segment.segment_id, DELTA_A)
    return catalog, catalog.append_delta(segment.segment_id, DELTA_OUT)


def _spent(model, snap):
    s = model.since(snap)
    return (s.base_cost, s.heap_cost, s.blocks_read, s.blocks_decoded,
            s.blocks_skipped, s.entries_decoded)


def _rpl_state(iterator):
    return (iterator.depth, iterator.skipped, iterator.last_read_score,
            iterator.exhausted, iterator.upper_bound)


# ----------------------------------------------------------------------
# RplIterator.next_entries(n) == n x next_entries(1)
# ----------------------------------------------------------------------
class TestRplBatchEquivalence:
    @pytest.mark.parametrize("factory", (_single_run, _merged_runs))
    @pytest.mark.parametrize("batch_size", (1, 3, 7, 1000))
    def test_batches_replay_the_scalar_walk(self, factory, batch_size):
        shim_model, batch_model = CostModel(), CostModel()
        shim_catalog, shim_segment = factory(shim_model)
        batch_catalog, batch_segment = factory(batch_model)
        shim_snap = shim_model.snapshot()
        batch_snap = batch_model.snapshot()
        shim = RplIterator(shim_catalog, shim_segment, sids=QUERY_SIDS)
        batch = RplIterator(batch_catalog, batch_segment, sids=QUERY_SIDS)

        while True:
            got = batch.next_entries(batch_size)
            want = []
            for _ in range(batch_size):
                want.extend(shim.next_entries(1))
            assert got == want  # dataclass equality: exact floats
            assert _rpl_state(batch) == _rpl_state(shim)
            assert _spent(batch_model, batch_snap) == \
                _spent(shim_model, shim_snap)
            if not got:
                break
        assert batch.exhausted and shim.exhausted
        # Calls past exhaustion stay free and empty on both paths.
        assert batch.next_entries(5) == []
        assert shim.next_entries(1) == []
        assert _spent(batch_model, batch_snap) == _spent(shim_model, shim_snap)

    def test_merged_runs_emit_global_descending_order(self):
        catalog, segment = _merged_runs(free_cost_model())
        iterator = RplIterator(catalog, segment, sids=set(range(6)))
        entries = iterator.next_entries(10_000)
        scores = [entry.score for entry in entries]
        assert scores == sorted(scores, reverse=True)
        assert len(entries) == len(BASE) + len(DELTA_A) + len(DELTA_B) + 2
        assert iterator.depth == len(entries)

    def test_empty_sid_filter_only_skips(self):
        catalog, segment = _merged_runs(free_cost_model())
        iterator = RplIterator(catalog, segment, sids=set())
        assert iterator.next_entries(50) == []
        assert iterator.exhausted
        assert iterator.skipped == iterator.depth > 0

    @pytest.mark.parametrize("factory", (_single_run, _merged_runs))
    def test_skip_until_score_below_charges_identically(self, factory):
        shim_model, batch_model = CostModel(), CostModel()
        shim_catalog, shim_segment = factory(shim_model)
        batch_catalog, batch_segment = factory(batch_model)
        shim = RplIterator(shim_catalog, shim_segment, sids=QUERY_SIDS)
        batch = RplIterator(batch_catalog, batch_segment, sids=QUERY_SIDS)
        for _ in range(5):
            shim.next_entries(1)
        batch.next_entries(5)
        shim_snap, batch_snap = shim_model.snapshot(), batch_model.snapshot()
        assert batch.skip_until_score_below(float("inf")) == \
            shim.skip_until_score_below(float("inf"))
        assert _spent(batch_model, batch_snap) == _spent(shim_model, shim_snap)
        assert _rpl_state(batch) == _rpl_state(shim)


# ----------------------------------------------------------------------
# ErplIterator.take_until == repeated consume_head
# ----------------------------------------------------------------------
def _drain_scalar(iterator, bound):
    out = []
    while not iterator.exhausted and iterator.current_position < bound:
        out.append(iterator.consume_head())
    return out


class TestErplTakeUntil:
    BOUNDS = ((0, 15), (1, 5), (5, 0), (100, 25), M_POS)

    @pytest.mark.parametrize("factory", (_single_erpl, _merged_erpl))
    def test_take_until_matches_scalar_drain(self, factory):
        shim_model, batch_model = CostModel(), CostModel()
        shim_catalog, shim_segment = factory(shim_model)
        batch_catalog, batch_segment = factory(batch_model)
        shim_snap = shim_model.snapshot()
        batch_snap = batch_model.snapshot()
        shim = ErplIterator(shim_catalog, shim_segment, sids=QUERY_SIDS)
        batch = ErplIterator(batch_catalog, batch_segment, sids=QUERY_SIDS)

        total = 0
        for bound in self.BOUNDS:
            got = batch.take_until(bound)
            want = _drain_scalar(shim, bound)
            assert got == want
            total += len(got)
            assert batch.depth == shim.depth
            assert batch.exhausted == shim.exhausted
            assert _spent(batch_model, batch_snap) == \
                _spent(shim_model, shim_snap)
        assert total > 0
        assert batch.exhausted  # M_POS drains everything
        assert batch.take_until(M_POS) == []

    def test_entries_come_back_in_position_order(self):
        catalog, segment = _merged_erpl(free_cost_model())
        iterator = ErplIterator(catalog, segment, sids=QUERY_SIDS)
        entries = iterator.take_until(M_POS)
        positions = [(entry.docid, entry.endpos) for entry in entries]
        assert positions == sorted(positions)


# ----------------------------------------------------------------------
# PostingIterator.next_chunk == the stored position stream
# ----------------------------------------------------------------------
class TestPostingChunks:
    def _blocked_postings(self, model):
        tok = Tokenizer(stopwords=())
        collection = Collection.from_documents(
            parse_document(text, docid, tokenizer=tok)
            for docid, text in enumerate((
                "<a><b>xml db xml</b><b>xml query</b></a>",
                "<a><b>db xml xml</b></a>",
            )))
        postings = BlockedPostings(cost_model=model, fragment_size=2)
        postings.rebuild(collection)
        return postings

    def test_chunks_flatten_to_the_position_stream(self):
        model = CostModel()
        postings = self._blocked_postings(model)
        sequence = postings.sequence("xml")
        snap = model.snapshot()
        batch = PostingIterator(postings, "xml")

        flattened = []
        while (chunk := batch.next_chunk()) is not None:
            flattened.extend(chunk)
        spent = model.since(snap)
        assert flattened == sequence.entries()  # the uncharged decode
        assert flattened[-1] == M_POS
        # One open per fragment, every position decoded exactly once.
        assert spent.blocks_read == spent.blocks_decoded == sequence.block_count
        assert spent.entries_decoded == len(flattened)

    def test_absent_term_has_no_chunks(self):
        iterator = PostingIterator(self._blocked_postings(CostModel()), "zzz")
        assert iterator.next_chunk() is None


# ----------------------------------------------------------------------
# score_block == score, full float equality
# ----------------------------------------------------------------------
class TestScoreBlockExactness:
    @pytest.fixture(scope="class")
    def stats(self):
        tok = Tokenizer(stopwords=())
        collection = Collection.from_documents(
            parse_document(text, docid, tokenizer=tok)
            for docid, text in enumerate((
                "<a><b>xml retrieval</b><b>xml database</b></a>",
                "<a><b>retrieval engines</b></a>",
                "<a><b>xml</b></a>",
            )))
        return ScoringStats.from_collection(collection)

    @pytest.mark.parametrize("scorer_cls",
                             (BM25Scorer, LMImpactScorer, TfIdfScorer))
    @pytest.mark.parametrize("term", ("xml", "retrieval", "unseen"))
    def test_block_equals_scalar_bitwise(self, scorer_cls, term, stats):
        scorer = scorer_cls(stats)
        rng = random.Random(hash((scorer_cls.__name__, term)) & 0xFFFF)
        tfs = [0, 1, 1, 2, 5, 17] + [rng.randrange(0, 30) for _ in range(40)]
        lengths = [1, 1, 200, 3, 50, 9] + [rng.randrange(0, 400)
                                           for _ in range(40)]
        block = scorer.score_block(term, tfs, lengths)
        assert len(block) == len(tfs)
        for tf, length, got in zip(tfs, lengths, block):
            want = scorer.score(term, tf, length)
            assert got == want  # bitwise, not approximate

    def test_generic_fallback_maps_the_scalar_scorer(self, stats):
        from repro.scoring import ElementScorer

        class Inverse(ElementScorer):
            # A third-party scorer defining only the scalar method must
            # be batch-callable through the inherited fallback.
            def score(self, term, tf, length):
                return tf / (length + 1.0)

        scorer = Inverse(stats)
        tfs, lengths = [0, 1, 4], [10, 10, 3]
        assert scorer.score_block("xml", tfs, lengths) == \
            [scorer.score("xml", tf, length)
             for tf, length in zip(tfs, lengths)]
