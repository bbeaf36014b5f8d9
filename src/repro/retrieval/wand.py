"""WAND — block-max windows over Merge's range reads.

WAND reads the (term, sid, run) ERPL ranges Merge reads, through
Merge's reader, but skips what the block-max headers rule out — Ding &
Suel's block-max indexing at block granularity (docs/retrieval.md,
"WAND: block-max windows"):

* each sid's position axis is cut at every block boundary of the
  clause's ranges, so a window overlaps at most one block per range;
* a window's bound is Σ_t w_t · (term t's largest overlapping block-max),
  summed in term order as scores are, so float rounding cannot put it
  below a score it covers;
* windows are read best bound first, and the first whose bound is
  strictly below θ — the larger of the session's own k-th score and the
  coordinator's floor — ends the run; a block that overlaps only
  skipped windows is never opened;
* a window read is summed per element in term order exactly as
  :func:`~repro.retrieval.merge.merge_retrieve` sums, so the answers
  are Merge's, which are ERA's.

:class:`WandSession` is resumable like
:class:`~repro.retrieval.ta.TaSession` — one ``step()`` is a batch of
windows — so the sharded coordinator feeds its global k-th floor into
each session's θ: distributed WAND.
"""

from __future__ import annotations

from bisect import bisect_right

from ..index.catalog import IndexCatalog, IndexSegment
from ..scoring.combine import ScoredHit
from ..storage.blocks import BlockOpenLog, BlockSequence
from ..storage.cost import CostModel
from .heap import TopKHeap
from .iterators import M_POS_CODE, POSITION_BITS
from .merge import BlockRows, read_sid_block, sid_blocks, sum_term
from .result import EvaluationStats
from .ta import DEFAULT_BATCH_SIZE

__all__ = ["WandSession", "wand_retrieve"]

_OFFSET_MASK = (1 << POSITION_BITS) - 1

#: One window of one sid: the position codes it spans, ``(after, last]``,
#: its bound, and each block that overlaps it, in term order, as
#: ``(term, slot, block, first block of its range?)``.
_Window = tuple[int, int, int, float, tuple[tuple[int, int, int, bool], ...]]


def _minus_bound(window: _Window) -> float:
    return -window[3]


class WandSession:
    """One WAND run, advanced a batch of windows at a time.

    ``threshold`` / ``can_prune`` / ``step`` / ``run`` / ``prune`` /
    ``finalize`` / ``stats_into`` mirror
    :class:`~repro.retrieval.ta.TaSession`, so the coordinator drives
    both alike; every heap entry is an exact full score, which makes the
    distributed floor tight.  Opening charges what Merge charges before
    its first open — a seek per range and each range's directory
    search — and a sort of the windows, which are read off resident
    headers.
    """

    def __init__(self,
                 catalog: IndexCatalog,
                 segments: dict[str, IndexSegment],
                 sids: frozenset[int] | set[int],
                 k: int,
                 cost_model: CostModel,
                 term_weights: dict[str, float] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if k < 1:
            raise ValueError("WAND requires k >= 1")
        if batch_size < 1:
            raise ValueError("WAND requires batch_size >= 1")
        self.k = k
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.weights = {term: 1.0 for term in segments}
        if term_weights:
            self.weights.update({t: w for t, w in term_weights.items()
                                 if t in self.weights})
        self._segments = segments
        self._weights = list(self.weights.values())
        self._opens = BlockOpenLog()
        #: ``(slot, block, sid)`` -> the block's rows of the sid.
        self._opened: dict[tuple[int, int, int], BlockRows] = {}
        self._blocks = 0  # blocks of every range
        self._windows: list[_Window] = []
        runs = [catalog.runs_for(segment) for segment in segments.values()]
        slots = [[self._opens.register(run) if run.block_count else -1
                  for run in term_runs] for term_runs in runs]
        for sid in sorted(sids):
            self._cut(sid, runs, slots)
        cost_model.seek(len(sids) * sum(map(len, runs)))  # one per range
        # Best bound first (ties in position order): θ climbs as fast as
        # the headers allow, and the first window below it ends the run.
        self._windows.sort(key=_minus_bound)
        cost_model.sort(len(self._windows))
        self._next = 0
        #: Rows scored per term, and rows in opened blocks.
        self._taken = [0] * len(segments)
        self._read = 0
        #: Offered element code -> (sid, length), for finalize().
        self.candidates: dict[int, tuple[int, int]] = {}
        self.heap = TopKHeap(k, cost_model)
        self.external_floor = float("-inf")
        self.early_stop = False
        self.pruned = False
        self.finished = False
        #: Windows skipped, elements scored, blocks never opened.
        self.pivot_advances = 0
        self.docs_evaluated = 0
        self.blocks_skipped_shallow = 0

    def _cut(self, sid: int, runs: list[list[BlockSequence]],
             slots: list[list[int]]) -> None:
        """Append *sid*'s windows: cut before each block's first row of
        the sid and after its last (a block running on into another sid
        bounds nothing on that side)."""
        ranges = []
        for term, (term_runs, term_slots) in enumerate(zip(runs, slots)):
            for run, slot in zip(term_runs, term_slots):
                if slot < 0:
                    continue
                blocks = sid_blocks(run, sid)
                self._blocks += len(blocks)
                headers = [run.headers[block] for block in blocks]
                if not headers:
                    continue
                firsts = [h.first_key[1] << POSITION_BITS | h.first_key[2]
                          if h.first_key[0] == sid else 0 for h in headers]
                lasts = [h.last_key[1] << POSITION_BITS | h.last_key[2]
                         if h.last_key[0] == sid else M_POS_CODE
                         for h in headers]
                ranges.append((term, slot, blocks.start, firsts, lasts,
                               [h.max_score for h in headers]))
        cuts = {cut for _term, _slot, _start, firsts, lasts, _max in ranges
                for cut in (*lasts, *(first - 1 for first in firsts))}
        after = -1
        for last in sorted(cuts):
            parts = []
            best: dict[int, float] = {}
            for term, slot, start, firsts, lasts, maxes in ranges:
                index = bisect_right(lasts, after)
                if index < len(lasts) and firsts[index] <= last:
                    parts.append((term, slot, start + index, not index))
                    best[term] = max(best.get(term, 0.0), maxes[index])
            if parts:
                bound = 0.0
                for term, block_max in best.items():  # term order
                    bound += self._weights[term] * block_max
                self._windows.append((sid, after, last, bound, tuple(parts)))
            after = last

    # -- bounds ---------------------------------------------------------
    def threshold(self) -> float:
        """The bound of the next window — a bound on any element this
        session has not scored."""
        if self.finished or self._next == len(self._windows):
            return 0.0
        return self._windows[self._next][3]

    def _theta(self) -> float:
        return max(self.heap.min_score(), self.external_floor)

    def can_prune(self, floor: float) -> bool:
        """Sound early-termination test against a global *floor*: the
        shard is dead once the floor strictly clears both the threshold
        and the best score already heaped, so cross-shard ties survive.
        The floor also becomes ``external_floor``, part of θ."""
        self.external_floor = floor
        if floor == float("-inf"):
            return False
        compares = 1
        dead = floor > self.threshold()
        if dead and len(self.heap):
            compares = 2
            dead = self.heap.max_score() < floor
        self.cost_model.compare(compares)
        return dead

    # -- advancement ----------------------------------------------------
    def step(self) -> bool:
        """Test, and read or skip, one batch of windows; False once
        ended.  One comparison per window bound: the first bound below
        θ ends the run, since every window after it is bounded lower."""
        if self.finished:
            return False
        windows = self._windows
        stop = min(self._next + self.batch_size, len(windows))
        compares = combines = 0
        while self._next < stop:
            compares += 1
            if windows[self._next][3] < self._theta():
                self.early_stop = True
                self.pivot_advances += len(windows) - self._next
                stop = self._next = len(windows)
                break
            rows, searched = self._score(windows[self._next])
            combines += rows
            compares += searched
            self._next += 1
        self._opens.replay()
        if compares:
            self.cost_model.compare(compares)
        if combines:
            self.cost_model.score_combine(combines)
        if stop == len(windows):
            self._finish()
            return False
        return True

    def run(self) -> None:
        while self.step():
            pass

    def _score(self, window: _Window) -> tuple[int, int]:
        """Read *window*, sum its scores per element in term order and
        offer those that reach θ to the heap, best first, until one
        falls below the heap's floor.  Returns the rows summed and the
        comparisons made: first-block sid bisections, the in-block
        window searches (each a full bisection of the block's rows), θ
        tests and offers tried."""
        sid, after, last, _bound, parts = window
        scores: dict[int, float] = {}
        slices = []
        rows = compares = 0
        for term, slot, block, first in parts:
            block_rows = self._opened.get((slot, block, sid))
            if block_rows is None:
                block_rows, steps = read_sid_block(
                    self._opens, slot, block, len(self._opened), sid, first)
                self._opened[slot, block, sid] = block_rows
                self._read += len(block_rows[0])
                compares += steps
            codes, stored, lengths = block_rows
            lo = bisect_right(codes, after)
            hi = bisect_right(codes, last, lo)
            compares += 2 * len(codes).bit_length()
            if lo < hi:
                scores = sum_term(scores, codes[lo:hi], stored[lo:hi],
                                  self._weights[term])
                slices.append((codes, lengths, lo, hi))
                self._taken[term] += hi - lo
                rows += hi - lo
        self.docs_evaluated += len(scores)
        compares += len(scores)
        theta = self._theta()
        # Best first: (-score, code) is the result order.
        offered = [(-score, code) for code, score in scores.items()
                   if score >= theta]
        if offered:
            offered.sort()
            self.cost_model.sort(len(offered))
            shapes: dict[int, int] = {}
            for codes, lengths, lo, hi in slices:
                shapes.update(zip(codes[lo:hi], lengths[lo:hi]))
            for negative, code in offered:
                compares += 1
                if -negative < self.heap.min_score():
                    break  # so is every score after it
                self.candidates[code] = (sid, shapes[code])
                self.heap.offer(-negative, code)
        return rows, compares

    def _finish(self) -> None:
        """End the run: every block not opened counts as skipped."""
        self.finished = True
        skipped = self._blocks - len(self._opened)
        if skipped:
            self.blocks_skipped_shallow += skipped
            self.cost_model.block_skip(skipped)

    def prune(self) -> None:
        """Abandon the session: its hits can no longer reach the global
        top-k; blocks not opened count as skipped."""
        self.pruned = True
        self._finish()

    # -- results --------------------------------------------------------
    def finalize(self) -> list[ScoredHit]:
        # items() is already (-score, position): the result order.
        return [ScoredHit(score, code >> POSITION_BITS, code & _OFFSET_MASK,
                          *self.candidates[code])
                for score, code in self.heap.items()]

    def stats_into(self, stats: EvaluationStats) -> None:
        """Accumulate candidates, early stop, rows scored per term, list
        lengths, rows read but not scored, and the window counters."""
        stats.candidates += len(self.candidates)
        stats.early_stop = stats.early_stop or self.early_stop
        for (term, segment), taken in zip(self._segments.items(),
                                          self._taken):
            stats.list_depths[term] = stats.list_depths.get(term, 0) + taken
            stats.list_lengths[term] = (stats.list_lengths.get(term, 0)
                                        + segment.entry_count)
        stats.rows_skipped += self._read - sum(self._taken)
        stats.pivot_advances += self.pivot_advances
        stats.blocks_skipped_shallow += self.blocks_skipped_shallow
        stats.docs_evaluated += self.docs_evaluated


def wand_retrieve(catalog: IndexCatalog,
                  segments: dict[str, IndexSegment],
                  sids: frozenset[int] | set[int],
                  k: int,
                  cost_model: CostModel,
                  term_weights: dict[str, float] | None = None,
                  batch_size: int = DEFAULT_BATCH_SIZE,
                  ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run WAND to completion for the top-*k* elements over the ERPL
    *segments* (one per query term), *batch_size* windows per step."""
    session = WandSession(catalog, segments, sids, k, cost_model,
                          term_weights, batch_size)
    session.run()
    hits = session.finalize()
    stats = EvaluationStats(method="wand")
    session.stats_into(stats)
    return hits, stats
