"""WAND — document-at-a-time retrieval with block-max pivoting.

The fourth strategy on the TERMatat/DOCatat axis.  Where TA consumes
each RPL in score order and Merge streams every ERPL to the end, WAND
walks the ERPLs in *document order* and uses two tiers of upper bounds
to leap over elements that cannot reach the current top-k floor:

* a **static per-term bound** — when an RPL for the term is resident,
  the head of its block-max directory (``headers[0].max_score``, the
  term's best stored score; with LSM delta runs, the max over live
  runs), otherwise the max over the ERPL's block headers.  The classic
  WAND pivot test sorts terms by their current document and accumulates
  ``w_t · UB_t`` until the sum reaches the floor θ: the term where it
  crosses holds the *pivot* — the first document that could still make
  the top-k;
* a **shallow block-max bound** — before the prefix lists pay a deep
  descent (directory leap + block decode) to align on the pivot, the
  resident ERPL headers of the blocks that would hold the pivot refine
  the bound.  If even the block maxima cannot reach θ, every document
  up to the nearest block boundary (and below the first suffix head) is
  dead, and the prefix lists leap past it without decoding anything —
  the Block-Max-WAND step.

Scoring and tie handling are identical to ERA/TA/Merge: a document's
score is the weighted sum of its stored per-term scores (every stored
score is positive), candidates with upper bound **equal** to θ are
still evaluated (so score ties survive and resolve by smallest key),
and results sort by ``(-score, docid, endpos)`` — byte-identical top-k.

The loop is packaged as a resumable :class:`WandSession` mirroring
:class:`~repro.retrieval.ta.TaSession`: ``wand_retrieve`` runs one
session to completion, while the sharded coordinator advances one
session per shard and feeds the global k-th floor into each session's
pivot bound (``external_floor``) — distributed WAND.
"""

from __future__ import annotations

from ..corpus.document import M_POS
from ..index.catalog import IndexCatalog, IndexSegment
from ..scoring.combine import ScoredHit
from ..storage.cost import CostModel
from .heap import TopKHeap
from .iterators import ErplIterator, Position, TermFrontier
from .result import EvaluationStats

__all__ = ["WandSession", "wand_retrieve", "DEFAULT_PIVOT_BATCH"]

#: Pivot rounds between coordinator control points (``step()`` granularity).
DEFAULT_PIVOT_BATCH = 32


class WandSession:
    """One WAND run, advanced pivot-round by pivot-round.

    Mirrors :class:`~repro.retrieval.ta.TaSession`'s resumable surface
    (``threshold`` / ``can_prune`` / ``step`` / ``run`` / ``prune`` /
    ``finalize`` / ``stats_into``) so the sharded coordinator drives
    both interchangeably.  Unlike TA's candidate bounds, every heap
    entry here carries an **exact** full score — the document was
    evaluated completely when it was offered — which is what makes the
    distributed floor tight.  ``external_floor`` lets the coordinator
    feed the global k-th floor straight into the pivot test.
    """

    def __init__(self,
                 catalog: IndexCatalog,
                 segments: dict[str, IndexSegment],
                 sids: frozenset[int] | set[int],
                 k: int,
                 cost_model: CostModel,
                 term_weights: dict[str, float] | None = None,
                 bound_segments: dict[str, IndexSegment | None] | None = None,
                 batch_size: int = DEFAULT_PIVOT_BATCH) -> None:
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
        bounds = bound_segments if bound_segments is not None else {}
        self.iterators = {
            term: ErplIterator(catalog, segment, sids)
            for term, segment in segments.items()}
        #: term -> w_t · UB_t, the weighted static WAND bound.
        self.static_bounds = {
            term: self.weights[term] * iterator.static_bound(bounds.get(term))
            for term, iterator in self.iterators.items()}
        # The pivot loop's view of the three dicts above: the live
        # cursors by head position, weights and bounds by term index.
        self._frontier = TermFrontier(self.iterators.values())
        self._weights = list(self.weights.values())
        self._bounds = list(self.static_bounds.values())
        #: Evaluated element key -> (sid, length), for finalize().
        self.candidates: dict[tuple[int, int], tuple[int, int]] = {}
        self.heap = TopKHeap(k, cost_model)
        self.external_floor = float("-inf")
        self.early_stop = False
        self.pruned = False
        self.finished = False
        self.pivot_advances = 0
        self.blocks_skipped_shallow = 0
        self.docs_evaluated = 0

    # -- bounds ---------------------------------------------------------
    def threshold(self) -> float:
        """Σ_j w_j · UB_j over live terms — bound on any unseen element."""
        return sum(self.static_bounds[term]
                   for term, iterator in self.iterators.items()
                   if not iterator.exhausted)

    def _theta(self) -> float:
        floor = self.heap.min_score()
        if self.external_floor > floor:
            floor = self.external_floor
        return floor

    def can_prune(self, floor: float) -> bool:
        """Sound early-termination test against a global *floor*.

        Every heap entry is an exact full score, so the shard is dead
        once the floor strictly clears both the static threshold (no
        unseen element can reach it) and the best already-evaluated
        score (no collected hit would survive the global merge).
        Strict comparisons throughout, so cross-shard ties survive.
        """
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
        """Advance one batch of pivot rounds; False once ended."""
        if self.finished:
            return False
        for _ in range(self.batch_size):
            if not self._round():
                return False
        return True

    def run(self) -> None:
        while self.step():
            pass

    def _round(self) -> bool:
        """One pivot round: find the pivot, then evaluate it, leap the
        prefix lists onto it, or rule it out via the shallow bound."""
        live = self._frontier.live
        if not live:
            self.finished = True
            return False
        theta = self._theta()
        accumulated = 0.0
        pivot = -1
        bounds = self._bounds
        for position, (_head, index, _cursor) in enumerate(live):
            accumulated += bounds[index]
            if accumulated >= theta:  # non-strict: ties must be evaluated
                pivot = position
                break
        # The round's comparisons, charged once: a sweep's worth for
        # keeping the terms in head order, one per bound accumulated,
        # and one per prefix term probed or aligned below.
        compares = len(live) + (pivot + 1 if pivot >= 0 else len(live))
        if pivot < 0:
            # Even all live bounds together fall strictly below θ: no
            # remaining document can enter the top-k.
            self.cost_model.compare(compares)
            self.early_stop = True
            self._finish()
            return False
        pivot_key = live[pivot][0]
        if live[0][0] == pivot_key:
            aligned = self._evaluate(pivot_key)
            self.cost_model.compare(compares + aligned)
            self.cost_model.score_combine(aligned)
            return True
        self.cost_model.compare(compares + pivot + 1)
        prefix = live[:pivot + 1]
        shallow = 0.0
        boundary: Position | None = None
        weights = self._weights
        for _head, index, cursor in prefix:
            term_bound, term_boundary = cursor.shallow(pivot_key)
            shallow += weights[index] * term_bound
            if term_boundary is not None and (boundary is None
                                              or term_boundary < boundary):
                boundary = term_boundary
        if shallow < theta:
            # Block-Max-WAND: the blocks around the pivot cannot reach
            # θ, so everything up to the boundary (and below the first
            # suffix head) is dead — leap it without decoding.
            target = self._next_target(pivot, pivot_key, boundary)
            for _head, _index, cursor in prefix:
                self.blocks_skipped_shallow += cursor.skip_to(target)
            self._frontier.repair(pivot + 1)
        else:
            # Deep descent: align the prefix lists on the pivot document.
            for _head, _index, cursor in prefix[:pivot]:
                cursor.skip_to(pivot_key)
            self._frontier.repair(pivot)
        self.pivot_advances += 1
        return True

    def _next_target(self, pivot: int, pivot_key: Position,
                     boundary: Position | None) -> Position:
        """First key not ruled out by a failed shallow check: past the
        pivot and the probed block boundary, clipped to the first
        suffix head (a suffix term could score documents beyond it)."""
        target = (pivot_key[0], pivot_key[1] + 1)
        if boundary is None:
            target = M_POS  # the probed blocks cover every remaining key
        else:
            after = (boundary[0], boundary[1] + 1)
            if after > target:
                target = after
        live = self._frontier.live
        if pivot + 1 < len(live) and live[pivot + 1][0] < target:
            target = live[pivot + 1][0]
        return target

    def _evaluate(self, key: Position) -> int:
        """Full evaluation of the aligned pivot document: consume its
        entry from every term positioned on it — the frontier's front,
        in term order.  Returns the number of terms consumed — the
        caller charges one comparison and one score combination for
        each."""
        score = 0.0
        aligned = 0
        weights = self._weights
        for head, index, cursor in self._frontier.live:
            if head != key:
                break
            aligned += 1
            entry = cursor.consume_head()
            score += weights[index] * entry.score
        self._frontier.repair(aligned)
        self.docs_evaluated += 1
        self.candidates[key] = (entry.sid, entry.length)
        self.heap.offer(score, key)
        return aligned

    def _finish(self) -> None:
        self.finished = True
        for iterator in self.iterators.values():
            iterator.skip_tail()
        self._frontier.live.clear()

    def prune(self) -> None:
        """Abandon the session: its hits can no longer reach the global
        top-k; remaining blocks count as skipped."""
        self.pruned = True
        self._finish()

    # -- results --------------------------------------------------------
    def finalize(self) -> list[ScoredHit]:
        # items() is already (-score, docid, endpos): the result order.
        candidates = self.candidates
        return [ScoredHit(score=score, docid=key[0], end_pos=key[1],
                          sid=candidates[key][0], length=candidates[key][1])
                for score, key in self.heap.items()]

    def stats_into(self, stats: EvaluationStats) -> None:
        """Accumulate per-list depth/length/skip and pivot counters."""
        for term, iterator in self.iterators.items():
            stats.list_depths[term] = (stats.list_depths.get(term, 0)
                                       + iterator.depth)
            stats.list_lengths[term] = (stats.list_lengths.get(term, 0)
                                        + iterator.length)
            stats.rows_skipped += iterator.skipped
        stats.pivot_advances += self.pivot_advances
        stats.blocks_skipped_shallow += self.blocks_skipped_shallow
        stats.docs_evaluated += self.docs_evaluated


def wand_retrieve(catalog: IndexCatalog,
                  segments: dict[str, IndexSegment],
                  sids: frozenset[int] | set[int],
                  k: int,
                  cost_model: CostModel,
                  term_weights: dict[str, float] | None = None,
                  bound_segments: dict[str, IndexSegment | None] | None = None,
                  batch_size: int = DEFAULT_PIVOT_BATCH,
                  ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run Block-Max-WAND for the top-*k* elements.

    Parameters
    ----------
    segments:
        For each query term, the ERPL segment to walk in document order.
    bound_segments:
        Optionally, for each term, a resident RPL segment whose
        block-max directory supplies the static upper bound (probed
        only — never decoded, never materialized).
    """
    snapshot = cost_model.snapshot()
    session = WandSession(catalog, segments, sids, k, cost_model,
                          term_weights, bound_segments, batch_size)
    session.run()
    hits = session.finalize()

    spent = cost_model.since(snapshot)
    stats = EvaluationStats(method="wand", cost=spent.total_cost,
                            ideal_cost=spent.ideal_cost,
                            candidates=len(session.candidates),
                            early_stop=session.early_stop)
    stats.record_block_io(spent)
    session.stats_into(stats)
    return hits, stats
