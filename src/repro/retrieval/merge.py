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

Merge is exhaustive, so :func:`merge_retrieve` charges and returns
exactly what the lockstep loop does without stepping it
(docs/retrieval.md, "Document order"): each (term, sid, run) range is
read once, in bulk, the scores are summed per element in term order,
and the block opens the loop would make are replayed through the page
cache in the order it would make them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count, repeat
from operator import lshift, or_

from ..index.catalog import IndexCatalog, IndexSegment
from ..scoring.combine import ScoredHit
from ..storage.blocks import BlockOpenLog, BlockSequence
from ..storage.cost import CostModel
from .iterators import POSITION_BITS, bisect_steps
from .result import EvaluationStats

__all__ = ["merge_retrieve", "read_sid_block", "sid_blocks", "sum_term"]

_OFFSET_MASK = (1 << POSITION_BITS) - 1

#: One term's rows, in stream order: position codes
#: (``docid << POSITION_BITS | endpos``), stored scores, sids, lengths.
TermRows = tuple[list[int], list[float], list[int], list[int]]
#: One block's rows of one sid: position codes, stored scores, lengths.
BlockRows = tuple[list[int], list[float], list[int]]


def sid_blocks(run: BlockSequence, sid: int) -> range:
    """The blocks of *run* that hold rows of *sid*: the first is found
    by the (charged) directory search for ``(sid, 0, 0)``, the rest by
    the resident headers — every later block that starts at or below
    the sid.  Empty when no block qualifies or the block found starts
    past the sid."""
    headers = run.headers
    first = stop = run.find_first_block_ge((sid, 0, 0))
    while stop < len(headers) and headers[stop].first_key[0] <= sid:
        stop += 1
    return range(first, stop)


def read_sid_block(opens: BlockOpenLog, slot: int, block: int, key: int,
                   sid: int, first: bool) -> tuple[BlockRows, int]:
    """The rows of *sid* in block *block* of the sequence in *slot*:
    opened through *opens* at sweep-order *key*, and — the range's
    *first* block — its sid column bisected to the sid's first row.
    Returns the rows and the bisection's step count, for the caller to
    charge."""
    columns = opens.columns(slot, block, key)
    sid_column, docids, ends = columns.keys
    lo = bisect_left(sid_column, sid) if first else 0
    hi = bisect_right(sid_column, sid, lo)
    codes = list(map(or_, map(lshift, docids[lo:hi], repeat(POSITION_BITS)),
                     ends[lo:hi]))
    rows = codes, columns.payloads[0][lo:hi], columns.payloads[1][lo:hi]
    return rows, bisect_steps(columns.count, lo) if first else 0


def sum_term(scores: dict[int, float], codes: list[int],
             stored: list[float], weight: float) -> dict[int, float]:
    """*scores* with one term's rows added, weighted, per element: the
    loop's additions in the loop's order (a lone holder's ``w·s`` is
    ``0.0 + w·s``), new elements appended in row order.  Updates
    *scores* in place, unless it is empty: then the term's own rows are
    the sum.  A term's rows hold each element once."""
    weighted = stored if weight == 1.0 else map(weight.__mul__, stored)
    if not scores:
        return dict(zip(codes, weighted))
    get = scores.get
    for code, score in zip(codes, weighted):
        scores[code] = get(code, 0.0) + score
    return scores


def _read_ranges(catalog: IndexCatalog, segments: list[IndexSegment],
                 sids: list[int]) -> list[TermRows]:
    """Every row of the (term, sid) ranges, charged as the loop's
    streams read them.

    The loop keeps one stream per (term, sid, run), built in that order
    (runs: base, then deltas).  Building one costs a seek and, for a
    run with blocks, the directory search for the sid (:func:`sid_blocks`);
    its first block is opened then — unless no block qualifies or the
    block starts past the sid — and its sid column bisected.  Each
    later block is opened when the loop consumes the last row of the
    block before.  The loop consumes rows by position, ties in term
    order.  So the opens are logged under the key of that moment —
    first opens under their stream's construction index, later ones
    after every first open, under the code of the row whose consumption
    makes them, shifted over the term index — and replayed through the
    page cache in key order.
    """
    model = catalog.cost_model.resolve()
    runs = [catalog.runs_for(segment) for segment in segments]
    shift = (len(runs) - 1).bit_length()
    # Every first open is made before any row is consumed.
    later = len(sids) * sum(len(term_runs) for term_runs in runs)
    opens = BlockOpenLog()
    built = steps = 0
    read: list[TermRows] = []
    for tag, term_runs in enumerate(runs):
        slots = [opens.register(run) if run.block_count else -1
                 for run in term_runs]
        codes: list[int] = []
        stored: list[float] = []
        row_sids: list[int] = []
        lengths: list[int] = []
        read.append((codes, stored, row_sids, lengths))
        for sid in sids:
            for run, slot in zip(term_runs, slots):
                built += 1
                if slot < 0:
                    continue
                blocks = sid_blocks(run, sid)
                for block in blocks:
                    first = block == blocks.start
                    rows, block_steps = read_sid_block(
                        opens, slot, block, built - 1 if first
                        else later + (codes[-1] << shift | tag), sid, first)
                    codes += rows[0]
                    stored += rows[1]
                    row_sids += repeat(sid, len(rows[0]))
                    lengths += rows[2]
                    steps += block_steps
    opens.replay()
    if later:
        model.seek(later)  # one per stream
    if steps:
        model.compare(steps)
    return read


def merge_retrieve(catalog: IndexCatalog,
                   segments: dict[str, IndexSegment],
                   sids: frozenset[int] | set[int],
                   cost_model: CostModel,
                   term_weights: dict[str, float] | None = None,
                   k: int | None = None,
                   ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run the Merge algorithm of Figure 3.

    Parameters
    ----------
    segments:
        For each query term, the ERPL segment to read (resolved by the
        caller through the catalog).
    sids:
        The query's sid set; only these ranges are read.
    k:
        How many of the ranked hits to build (``None``: all of them).
        The sort is charged over every hit either way.

    The scores are summed per element, term by term
    (:func:`sum_term`).  Per position the loop charges one comparison for
    each term whose cursor is still live — whose last row is at or past
    it — and one combination per row.
    """
    read = _read_ranges(catalog, list(segments.values()), sorted(sids))
    scores: dict[int, float] = {}
    lasts: list[int] = []
    for segment, (codes, stored, _, _) in zip(segments.values(), read):
        if not codes:
            continue
        lasts.append(max(codes))
        scores = sum_term(scores, codes, stored, 1.0 if term_weights is None
                          else term_weights.get(segment.term, 1.0))

    positions = sorted(scores)
    cost_model.compare(sum(bisect_right(positions, last) for last in lasts))
    rows = sum(len(codes) for codes, _, _, _ in read)
    cost_model.score_combine(rows)
    # line 22: sort V using QuickSort — by score descending, ties by
    # position, as a stable sort of the positions in order gives them.
    ranked = sorted(positions, key=scores.__getitem__, reverse=True)
    kept = len(ranked)
    while kept and not scores[ranked[kept - 1]] > 0.0:
        kept -= 1
    cost_model.sort(kept)
    del ranked[kept if k is None else min(k, kept):]
    # Sid and length of the hits built: a few are found by one scan of
    # the rows, many are read off a map of every row.
    where: dict[int, tuple[int, int]] = {}
    wanted = set(ranked)
    for codes, _, row_sids, lengths in read:
        if 4 * len(ranked) < rows:
            for row in compress(count(), map(wanted.__contains__, codes)):
                where[codes[row]] = row_sids[row], lengths[row]
        else:
            where.update(zip(codes, zip(row_sids, lengths)))
    hits = [ScoredHit(scores[code], code >> POSITION_BITS,
                      code & _OFFSET_MASK, *where[code]) for code in ranked]
    stats = EvaluationStats(method="merge", candidates=kept)
    for segment, (codes, _, _, _) in zip(segments.values(), read):
        stats.list_depths[segment.term] = len(codes)
        stats.list_lengths[segment.term] = len(codes)
    return hits, stats
