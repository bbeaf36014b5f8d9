"""Merge — positional merging of ERPLs (paper Figure 3).

Merge evaluates a retrieval task using the position-ordered ERPLs: one
iterator per query term (restricted to the query's sids), advanced in
lockstep by minimal element position.  When several terms' iterators
sit on the same element, their scores are summed; the accumulated
result list is sorted by score at the end ("sort V using QuickSort").

Merge reads *only* the (term, sid) ranges the query needs — seeking
straight to them thanks to the sid-major ERPL key — which is why it
beats TA whenever TA ends up scanning (and skipping through) wide
relevance-ordered lists (paper §5.2).
"""

from __future__ import annotations

from ..corpus.document import M_POS
from ..index.catalog import IndexCatalog, IndexSegment
from ..scoring.combine import ScoredHit
from ..storage.cost import CostModel
from .iterators import ErplIterator, TermFrontier
from .result import EvaluationStats

__all__ = ["merge_retrieve"]


def merge_retrieve(catalog: IndexCatalog,
                   segments: dict[str, IndexSegment],
                   sids: frozenset[int] | set[int],
                   cost_model: CostModel,
                   term_weights: dict[str, float] | None = None,
                   ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run the Merge algorithm of Figure 3.

    Parameters
    ----------
    segments:
        For each query term, the ERPL segment to read (resolved by the
        caller through the catalog).
    sids:
        The query's sid set; only these ranges are read.
    """
    snapshot = cost_model.snapshot()
    iterators = [ErplIterator(catalog, segment, sids)
                 for segment in segments.values()]
    weights = [1.0 if term_weights is None
               else term_weights.get(iterator.term, 1.0)
               for iterator in iterators]

    hits: list[ScoredHit] = []
    # Tallied here, charged once when the loop ends: one len(live)-way
    # minimum per Figure-3 iteration, one combination per entry summed.
    compares = combines = 0
    frontier = TermFrontier(iterators)
    live = frontier.live
    while live:
        # line 7: the minimal position among the current elements is the
        # frontier's front; the cursors sharing it follow, in term order
        position, index, holder = live[0]
        holders = 1
        while holders < len(live) and live[holders][0] == position:
            holders += 1
        if holders == 1:
            # Galloping batch: while one iterator alone holds the
            # minimum, every entry strictly below the runner-up's
            # position is its own single-term result — take the whole
            # run from the decoded block in one call.  Per emitted
            # entry this is one Figure-3 loop iteration.
            run = holder.take_until(live[1][0] if len(live) > 1 else M_POS)
            compares += len(live) * len(run)
            combines += len(run)
            weight = weights[index]
            for stored, sid, docid, endpos, length in run:
                score = weight * stored  # line 12
                if score > 0.0:
                    hits.append(ScoredHit(score, docid, endpos, sid,
                                          length))  # line 20
            frontier.repair(1)
            continue
        compares += len(live)
        combines += holders
        score = 0.0
        for _position, index, holder in live[:holders]:
            entry = holder.consume_head()  # lines 13-17
            score += weights[index] * entry.score  # line 12
        if score > 0.0:
            hits.append(ScoredHit(score, entry.docid, entry.endpos,
                                  entry.sid, entry.length))  # line 20
        frontier.repair(holders)

    cost_model.compare(compares)
    cost_model.score_combine(combines)
    # line 22: sort V using QuickSort
    cost_model.sort(len(hits))
    hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))

    spent = cost_model.since(snapshot)
    stats = EvaluationStats(method="merge", cost=spent.total_cost,
                            ideal_cost=spent.ideal_cost,
                            candidates=len(hits))
    stats.record_block_io(spent)
    for iterator in iterators:
        stats.list_depths[iterator.term] = iterator.depth
        stats.list_lengths[iterator.term] = iterator.depth
    return hits, stats
