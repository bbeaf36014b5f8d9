"""ERA — the Exhaustive Retrieval Algorithm (paper Figure 2).

ERA evaluates one retrieval task (a sid list and a term list) using
only the Elements and PostingLists indexes: it sweeps all term positions
in global (docid, offset) order, maintaining one extent iterator per
sid and a ``C[m][n]`` term-frequency matrix, and emits each extent
element together with its term-frequency vector once the sweep passes
its end position.

This is the strategy that always works (no redundant indexes needed)
but pays for reading *every occurrence* of every query term — the
baseline the paper's figures compare TA and Merge against.  It is also
the generator that materializes the RPL and ERPL tables ("TReX also uses
ERA for generating or extending the RPLs and ERPLs tables", §3.2):
:func:`repro.build.batch.compute_entries_batch` runs :func:`era_raw`
and is the only producer of collection-wide entries.
"""

from __future__ import annotations

from ..corpus.document import M_POS
from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..scoring.combine import ScoredHit
from ..scoring.scorers import ElementScorer
from ..storage.cost import CostModel
from .iterators import ElementSpan, ExtentIterator, PostingIterator
from .result import EvaluationStats

__all__ = ["era_raw", "era_retrieve"]


def era_raw(elements_index: BlockedElements,
            postings_index: BlockedPostings,
            sids: list[int], terms: list[str],
            cost_model: CostModel) -> list[tuple[ElementSpan, list[int]]]:
    """The literal algorithm of Figure 2.

    Returns ``(element, tf_vector)`` pairs where ``tf_vector[j]`` is the
    number of occurrences of ``terms[j]`` strictly inside the element.
    Elements are emitted in the order their end positions are passed.
    """
    if not sids or not terms:
        return []
    results: list[tuple[ElementSpan, list[int]]] = []

    extent_iterators = [ExtentIterator(elements_index, sid) for sid in sids]
    elements = [iterator.first_element() for iterator in extent_iterators]
    # Each sid's current element as plain (start, end) position tuples,
    # refreshed only when the element advances — the sweep below tests
    # every position against every sid.
    starts = [element.start for element in elements]
    ends = [element.end for element in elements]
    counts = [[0] * len(terms) for _ in sids]

    # Posting positions are consumed fragment-at-a-time: each term keeps
    # the current decoded chunk and an inline cursor, refilled through
    # the batch access path — one PostingIterator call per fragment
    # instead of one per position; decode charges are per fragment
    # opened, exactly as before.
    posting_iterators = [PostingIterator(postings_index, term) for term in terms]
    buffers: list[list[tuple[int, int]]] = []
    cursors: list[int] = []
    positions: list[tuple[int, int]] = []
    for iterator in posting_iterators:
        chunk = iterator.next_chunk()
        if chunk is None:
            chunk = [M_POS]  # term absent: behave as an empty list
        buffers.append(chunk)
        cursors.append(0)
        positions.append(chunk[0])

    sid_range = range(len(sids))
    swept = 0
    while True:
        # x: index of the minimal current position (line 12)
        pos_x = min(positions)
        x = positions.index(pos_x)
        swept += 1

        for i in sid_range:
            if pos_x <= starts[i]:
                continue  # line 15: do nothing
            if pos_x < ends[i]:
                counts[i][x] += 1  # line 17
            elif ends[i] < pos_x:
                # lines 19-23: flush the finished element
                if any(counts[i]):
                    results.append((elements[i], counts[i]))
                    counts[i] = [0] * len(terms)
                # line 24: advance past pos_x
                element = extent_iterators[i].next_element_after(pos_x)
                elements[i] = element
                starts[i], ends[i] = element.start, element.end
                if starts[i] < pos_x < ends[i]:
                    counts[i][x] += 1  # lines 25-27

        # line 31: the repeat..until loop stops once every term reached
        # m-pos — i.e. after the iteration that *processed* pos_x == m-pos
        # (which is the minimum only when all positions are m-pos), whose
        # flush above emitted every remaining element.
        if pos_x == M_POS:
            break
        cursor = cursors[x] + 1
        while cursor >= len(buffers[x]):
            chunk = posting_iterators[x].next_chunk()
            if chunk is None:
                chunk = [M_POS]  # stored lists end with the sentinel
            buffers[x] = chunk
            cursor = 0
        cursors[x] = cursor
        positions[x] = buffers[x][cursor]

    # Per position swept: a len(terms)-way minimum (line 12) and one
    # comparison against each sid's current element (lines 14-18).
    cost_model.compare(swept * (len(terms) + len(sids)))
    return results


def era_retrieve(elements_index: BlockedElements,
                 postings_index: BlockedPostings,
                 sids: list[int], terms: list[str],
                 scorer: ElementScorer, cost_model: CostModel,
                 term_weights: dict[str, float] | None = None,
                 ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run ERA and score the relevant elements.

    The score of an element is the weighted sum of per-term scores —
    the same aggregation RPL/ERPL-based strategies use, so all three
    strategies agree on scores.
    """
    snapshot = cost_model.snapshot()
    raw = era_raw(elements_index, postings_index, sorted(sids), list(terms),
                  cost_model)
    # Columnar scoring: one score_block call per term over the emitted
    # elements' tf/length columns, accumulated per element in term order
    # — the same additions in the same order as the per-element loop,
    # so aggregate scores are bitwise identical, and one score-combine
    # charge per nonzero contribution exactly as before.
    totals = [0.0] * len(raw)
    if raw:
        lengths = [element.length for element, _ in raw]
        combines = 0
        for j, term in enumerate(terms):
            weight = (1.0 if term_weights is None
                      else term_weights.get(term, 1.0))
            tfs = [tf_vector[j] for _, tf_vector in raw]
            scores = scorer.score_block(term, tfs, lengths)
            for i, tf in enumerate(tfs):
                if tf == 0:
                    continue
                totals[i] += weight * scores[i]
                combines += 1
        if combines:
            cost_model.score_combine(combines)
    hits: list[ScoredHit] = []
    for (element, _), score in zip(raw, totals):
        if score <= 0.0:
            continue
        hits.append(ScoredHit(score=score, docid=element.docid,
                              end_pos=element.endpos, sid=element.sid,
                              length=element.length))
    cost_model.sort(len(hits))
    hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))

    spent = cost_model.since(snapshot)
    stats = EvaluationStats(method="era", cost=spent.total_cost,
                            ideal_cost=spent.ideal_cost,
                            candidates=len(hits))
    stats.record_block_io(spent)
    return hits, stats
