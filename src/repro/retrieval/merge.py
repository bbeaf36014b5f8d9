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
from .iterators import ErplIterator
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
    weights = {iterator.term: (1.0 if term_weights is None
                               else term_weights.get(iterator.term, 1.0))
               for iterator in iterators}

    hits: list[ScoredHit] = []
    # Tallied here, charged once when the loop ends: one len(live)-way
    # minimum per Figure-3 iteration, one combination per entry summed.
    compares = combines = 0
    while True:
        live = [it for it in iterators if not it.exhausted]
        if not live:
            break
        # line 7: the minimal position among the current elements
        position = min(it.current_position for it in live)
        holders = [it for it in live if it.current_position == position]
        if len(holders) == 1:
            # Galloping batch: while one iterator alone holds the
            # minimum, every entry strictly below the runner-up's
            # position is its own single-term result — take the whole
            # run from the decoded block in one call.  Per emitted
            # entry this is one Figure-3 loop iteration.
            holder = holders[0]
            bound = M_POS
            for iterator in live:
                if iterator is not holder and iterator.current_position < bound:
                    bound = iterator.current_position
            run = holder.take_until(bound)
            compares += len(live) * len(run)
            combines += len(run)
            weight = weights[holder.term]
            for entry in run:
                score = weight * entry.score  # line 12
                if score > 0.0:
                    hits.append(ScoredHit(score=score, docid=entry.docid,
                                          end_pos=entry.endpos, sid=entry.sid,
                                          length=entry.length))  # line 20
            continue
        compares += len(live)
        combines += len(holders)
        score = 0.0
        spec = None
        for iterator in holders:
            entry = iterator.consume_head()  # lines 13-17
            score += weights[iterator.term] * entry.score  # line 12
            spec = entry
        if spec is not None and score > 0.0:
            hits.append(ScoredHit(score=score, docid=spec.docid,
                                  end_pos=spec.endpos, sid=spec.sid,
                                  length=spec.length))  # line 20

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
