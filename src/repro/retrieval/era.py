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

:func:`era_raw` charges and returns exactly what the sweep does, but
does per-sid work instead of per-position work (docs/retrieval.md,
"ERA"): the positions are merged once, each extent is walked by
bisection over them, and the block opens the sweep would make are
replayed through the page cache in the sweep's order.
"""

from __future__ import annotations

from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..scoring.combine import ScoredHit
from ..scoring.scorers import ElementScorer
from ..storage.blocks import BlockOpenLog
from ..storage.cost import CostModel
from .iterators import (M_POS_CODE, ElementSpan, ExtentIterator,
                        PostingIterator)
from .result import EvaluationStats

__all__ = ["era_raw", "era_retrieve"]


def era_raw(elements_index: BlockedElements,
            postings_index: BlockedPostings,
            sids: list[int], terms: list[str],
            cost_model: CostModel,
            docid: int | None = None) -> list[tuple[ElementSpan, list[int]]]:
    """The algorithm of Figure 2.

    Returns ``(element, tf_vector)`` pairs where ``tf_vector[j]`` is the
    number of occurrences of ``terms[j]`` strictly inside the element.
    Elements are emitted in the order their end positions are passed,
    sids in list order at one position.

    The sweep takes the least current position ``x`` (term order breaks
    ties) and tests it against every sid's current element: at or before
    its start nothing happens, inside it ``x`` is counted, past its end
    the element is emitted (when anything was counted) and the extent
    probes ``nextElementAfter(x)`` — whose element counts ``x`` when it
    holds it.  It stops after sweeping ``m-pos``.  Here the positions
    are merged once into *codes* — position code, then term index in
    the low *shift* bits, so sorted codes are the sweep's order — and
    each sid walks its own extent over them: an element read at sweep
    index ``t0`` counts the codes from the first past its start to the
    first at its end, and is passed (emitted, then probed past) at the
    first code past its end.  Every probe, its argument and every
    emission are the sweep's; the block opens are logged under the
    sweep-order key of the position they follow and replayed in that
    order at the end.

    With a *docid*, the sweep covers that document's positions alone
    and returns exactly the pairs of the unrestricted sweep whose
    element lies in it — the rows an ingest appends (§3.2: ERA also
    *extends* the lists).  Its charges are its own.
    """
    if not sids or not terms:
        return []
    width = len(terms)
    shift = (width - 1).bit_length()
    mask = (1 << shift) - 1
    opens = BlockOpenLog()
    extents = [ExtentIterator(elements_index, sid, opens, docid)
               for sid in sids]
    codes: list[int] = []
    for tag, term in enumerate(terms):
        term_codes = PostingIterator(postings_index, term, opens,
                                     docid).codes(shift, tag)
        codes += term_codes[:-1]  # drop the term's m-pos sentinel
    if width > 1:
        codes.sort()
    codes.append(M_POS_CODE << shift)  # the sweep ends on m-pos
    tags = [code & mask for code in codes] if width > 1 else []

    emitted: list[tuple[int, ElementSpan, list[int]]] = []
    count = len(sids)
    for i, extent in enumerate(extents):
        for passed, active, ending, element in extent.walk(codes, shift):
            if width == 1:
                counts = [ending - active]
            else:
                counts = [0] * width
                for tag in tags[active:ending]:
                    counts[tag] += 1
            emitted.append((passed * count + i, element, counts))
    opens.replay()
    # Per position swept: a len(terms)-way minimum (line 12) and one
    # comparison against each sid's current element (lines 14-18).
    cost_model.compare(len(codes) * (width + count))
    emitted.sort()  # by emission key alone: the keys are distinct
    return [(element, counts) for _key, element, counts in emitted]


def era_retrieve(elements_index: BlockedElements,
                 postings_index: BlockedPostings,
                 sids: list[int], terms: list[str],
                 scorer: ElementScorer, cost_model: CostModel,
                 term_weights: dict[str, float] | None = None,
                 k: int | None = None,
                 ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run ERA and score the relevant elements.

    The score of an element is the weighted sum of per-term scores —
    the same aggregation RPL/ERPL-based strategies use, so all three
    strategies agree on scores.  Only the first *k* ranked hits are
    built (``None``: all of them); the sort is charged over every hit.
    """
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
            totals = [total + weight * score if tf else total
                      for total, tf, score in zip(totals, tfs, scores)]
            combines += len(tfs) - tfs.count(0)
        if combines:
            cost_model.score_combine(combines)
    # (-score, docid, endpos) is unique per element, so sorting the keys
    # orders the hits exactly as sorting the hits by them would.
    ranked = sorted((-total, element.docid, element.endpos, element)
                    for (element, _), total in zip(raw, totals)
                    if total > 0.0)
    hits = [ScoredHit(-negated, docid, endpos, element.sid, element.length)
            for negated, docid, endpos, element in ranked[:k]]
    cost_model.sort(len(ranked))
    return hits, EvaluationStats(method="era", candidates=len(ranked))
