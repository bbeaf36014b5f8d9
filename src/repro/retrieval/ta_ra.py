"""TA-RA — the classic threshold algorithm with random accesses.

Fagin, Lotem and Naor's TA (the paper's reference [6]) interleaves
sorted access with *random access*: each element surfacing in one
term's relevance-ordered list is immediately resolved by probing the
other terms' scores, so its final score is known at once and the
classic stopping rule applies — halt when the k-th best final score
reaches the threshold ``Σ_j w_j · high_j``.

TReX's production TA (:mod:`repro.retrieval.ta`) follows TopX's
no-random-access discipline instead; this module implements the
textbook variant so the trade-off is measurable: TA-RA stops at
shallower sorted depths but pays one B+-tree probe per (candidate,
other term).  Random accesses go against the ERPL table (keyed by
``(token, segment, sid, docid, endpos)``), so TA-RA requires *both*
index kinds — exactly the doubled storage the paper's §4 discussion of
parallel evaluation weighs.
"""

from __future__ import annotations

from ..index.catalog import IndexCatalog, IndexSegment
from ..scoring.combine import ScoredHit
from ..storage.cost import CostModel
from .heap import TopKHeap
from .iterators import RplIterator
from .result import EvaluationStats

__all__ = ["ta_ra_retrieve"]


def _random_access(catalog: IndexCatalog, segment: IndexSegment,
                   sid: int, docid: int, endpos: int) -> float:
    """Probe one (term, element) score from the ERPL; 0 when absent."""
    score = catalog.erpl_probe(segment, sid, docid, endpos)
    return 0.0 if score is None else score


def ta_ra_retrieve(catalog: IndexCatalog,
                   rpl_segments: dict[str, IndexSegment],
                   erpl_segments: dict[str, IndexSegment],
                   sids: frozenset[int] | set[int],
                   k: int,
                   cost_model: CostModel,
                   term_weights: dict[str, float] | None = None,
                   ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Fagin's TA with immediate random access.

    ``rpl_segments`` drive sorted access; ``erpl_segments`` serve the
    random probes (both per query term).
    """
    if k < 1:
        raise ValueError("TA-RA requires k >= 1")
    if set(rpl_segments) != set(erpl_segments):
        raise ValueError("TA-RA needs an RPL and an ERPL per term")
    weights = {term: 1.0 for term in rpl_segments}
    if term_weights:
        weights.update({t: w for t, w in term_weights.items() if t in weights})

    snapshot = cost_model.snapshot()
    iterators = {term: RplIterator(catalog, segment, sids)
                 for term, segment in rpl_segments.items()}
    resolved: dict[tuple[int, int], ScoredHit] = {}
    heap = TopKHeap(k, cost_model)
    random_accesses = 0
    early_stop = False
    # Tallied here, charged once when the loop ends: one combination per
    # element resolved, one stop-test comparison per round.
    resolves = rounds = 0

    def threshold() -> float:
        return sum(weights[t] * it.upper_bound for t, it in iterators.items())

    while True:
        progressed = False
        for term, iterator in iterators.items():
            if iterator.exhausted:
                continue
            entries = iterator.next_entries(1)
            if not entries:
                continue
            entry = entries[0]
            progressed = True
            key = entry.element_key()
            if key in resolved:
                continue  # already fully scored by an earlier probe round
            score = weights[term] * entry.score
            for other, other_segment in erpl_segments.items():
                if other == term:
                    continue
                random_accesses += 1
                score += weights[other] * _random_access(
                    catalog, other_segment, entry.sid, entry.docid,
                    entry.endpos)
            resolves += 1
            resolved[key] = ScoredHit(score=score, docid=entry.docid,
                                      end_pos=entry.endpos, sid=entry.sid,
                                      length=entry.length)
            heap.offer(score, key)

        if not progressed:
            break
        # Classic TA stop: the k-th resolved score reaches the threshold.
        rounds += 1
        floor = heap.min_score()
        if floor != float("-inf") and floor >= threshold() - 1e-12:
            early_stop = True
            break

    cost_model.score_combine(resolves)
    cost_model.compare(rounds)
    hits = [resolved[key] for _, key in heap.items()]
    hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))

    spent = cost_model.since(snapshot)
    stats = EvaluationStats(method="ta-ra", cost=spent.total_cost,
                            ideal_cost=spent.ideal_cost,
                            candidates=len(resolved),
                            early_stop=early_stop)
    stats.record_block_io(spent)
    for term, iterator in iterators.items():
        stats.list_depths[term] = iterator.depth
        stats.list_lengths[term] = iterator.length
        stats.rows_skipped += iterator.skipped
    stats.random_accesses = random_accesses
    return hits, stats
