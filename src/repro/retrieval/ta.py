"""TA — the threshold algorithm over RPLs (paper §3.3).

TReX implements TA "in a version similar to the implementation that has
been used in TopX": batched sorted access over the per-term relevance-
ordered lists, candidate bookkeeping with worst/best score bounds, a
top-k heap, and a threshold-based stopping condition.  Entries whose
sid is not among the query's sids are skipped — but skipped rows are
still read, which is what makes TA pay dearly on wide-scope RPLs.

Heap management follows the paper's observed discipline (§5.2): every
candidate update is pushed and the minimum evicted once the heap
exceeds ``k``, so the number of removals is roughly ``inserts - k`` —
large for small ``k``, vanishing as ``k`` approaches the answer count.
All heap work is charged to the cost model's separate heap meter, so a
single run reports both the TA cost (with heap) and the ITA cost (the
paper's ideal-heap variant, measured by pausing the clock during heap
operations).  The meter is what makes the heap expensive, not the
interpreter: :class:`~repro.retrieval.heap.TopKHeap` charges the
push-evict round trip of an offer below its floor without making it.

Candidates record the lists they were seen in as a bitmask (bit ``j``
for the ``j``-th query term), so the best-score bound of a candidate is
its worst score plus one table lookup: ``Σ w_j · high_j`` over the lists
outside its mask, summed once per distinct mask per stopping check.

The stopping condition is the sound bounded variant (no random
accesses are assumed): stop once (a) the k-th worst score reaches the
threshold ``Σ_j w_j · high_j``, (b) no pending candidate's best score
can overtake it, and (c) every member of the current top-k is fully
resolved, so reported scores equal the true aggregate scores.

The loop is packaged as a resumable :class:`TaSession` so a coordinator
can interleave several lists-in-progress: ``ta_retrieve`` simply runs
one session to completion, while the sharded scatter-gather engine
(:mod:`repro.shard.engine`) advances one session per shard batch by
batch and abandons a session once the global top-k floor dominates the
shard's remaining upper bound (distributed TA).
"""

from __future__ import annotations

from ..index.catalog import IndexCatalog, IndexSegment
from ..scoring.combine import ScoredHit
from ..storage.cost import CostModel
from .heap import TopKHeap
from .iterators import RplIterator
from .result import EvaluationStats

__all__ = ["TaSession", "ta_retrieve", "DEFAULT_BATCH_SIZE"]

#: Sorted accesses between evaluations of the stopping condition
#: (TopX-style batching; checking every row would itself dominate).
DEFAULT_BATCH_SIZE = 32


class _Candidate:
    """A seen element: its worst score so far and the lists (one bit per
    query term, in term order) that have delivered it."""

    __slots__ = ("worst", "seen", "sid", "length")

    def __init__(self, sid: int, length: int) -> None:
        self.worst = 0.0
        self.seen = 0
        self.sid = sid
        self.length = length


class _Completions(dict[int, float]):
    """seen-mask → ``Σ_j w_j · high_j`` over the lists outside the mask:
    what a candidate with that mask can still gain.  Built per bound
    check (the ``high_j`` move with every sorted access) and filled on
    first use — candidates share a handful of masks.  Mask 0 is the
    unseen-element threshold."""

    __slots__ = ("_bonuses",)

    def __init__(self, bonuses: list[tuple[int, float]]) -> None:
        self._bonuses = bonuses

    def __missing__(self, mask: int) -> float:
        bonus = self[mask] = sum(bonus for bit, bonus in self._bonuses
                                 if not mask & bit)
        return bonus


class TaSession:
    """One TA run, advanced batch by batch.

    ``step()`` performs sorted accesses until the next stopping-condition
    check (one batch) and reports whether the session is still live.
    ``finalize()`` applies the tail block skips and returns the sorted
    hits.  A coordinator that decides the session can no longer matter
    calls ``prune()`` instead, which abandons the run and discards its
    candidates (the remaining blocks are counted as skipped).
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
            raise ValueError("TA requires k >= 1")
        if batch_size < 1:
            raise ValueError("TA requires batch_size >= 1")
        self.k = k
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.weights = {term: 1.0 for term in segments}
        if term_weights:
            self.weights.update({t: w for t, w in term_weights.items()
                                 if t in self.weights})
        self.iterators = {term: RplIterator(catalog, segment, sids)
                          for term, segment in segments.items()}
        #: Per list, in term order: (w_j, the term's candidate bit, cursor).
        self._lists = [(self.weights[term], 1 << index, iterator)
                       for index, (term, iterator)
                       in enumerate(self.iterators.items())]
        self.candidates: dict[tuple[int, int], _Candidate] = {}
        self.heap = TopKHeap(k, cost_model)
        self.early_stop = False
        self.pruned = False
        self.finished = False
        self._accesses_since_check = 0

    # -- bounds ---------------------------------------------------------
    def _completions(self) -> _Completions:
        return _Completions([(bit, weight * iterator.upper_bound)
                             for weight, bit, iterator in self._lists])

    def threshold(self) -> float:
        """Σ_j w_j · high_j — bound on any element not yet seen."""
        return self._completions()[0]

    def upper_bound(self) -> float:
        """Bound on the final score of *any* element this session could
        still deliver: the unseen-element threshold or the best possible
        completion of a seen candidate, whichever is larger."""
        completions = self._completions()
        bound = completions[0]
        self.cost_model.compare(len(self.candidates))
        for candidate in self.candidates.values():
            best = candidate.worst + completions[candidate.seen]
            if best > bound:
                bound = best
        return bound

    def can_prune(self, floor: float) -> bool:
        """Sound early-termination test against a global *floor*.

        Equivalent to ``floor > self.upper_bound()`` but cheap on the
        common path: the static threshold ``Σ_j w_j · high_j`` comes
        straight from the resident block-max directories (before the
        first sorted access it is the list-head bound, i.e. the shard's
        static score upper bound), so while the floor has not cleared
        it no element — seen or unseen — can be ruled out and the
        per-candidate completion scan is skipped entirely.  Once the
        floor does clear the threshold, the scan early-exits on the
        first candidate whose best completion still reaches the floor.
        Strict comparisons throughout, so cross-shard ties survive.
        """
        if floor == float("-inf"):
            return False
        completions = self._completions()
        compares = 1
        dead = floor > completions[0]
        if dead:
            for candidate in self.candidates.values():
                compares += 1
                if candidate.worst + completions[candidate.seen] >= floor:
                    dead = False
                    break
        self.cost_model.compare(compares)
        return dead

    def _should_stop(self) -> bool:
        heap, candidates, k = self.heap, self.candidates, self.k
        if len(heap) < min(k, max(len(candidates), 1)):
            return False
        floor = heap.min_score()
        if floor == float("-inf"):
            return False
        completions = self._completions()
        compares = 1
        stop = floor >= completions[0]
        if stop:
            # (b) no pending candidate can overtake; (c) top-k fully
            # resolved.  One comparison per candidate examined.
            for key, candidate in candidates.items():
                compares += 1
                worst = candidate.worst
                if worst + completions[candidate.seen] > (
                        worst if key in heap else floor) + 1e-12:
                    stop = False  # unresolved member / pending overtaker
                    break
        self.cost_model.compare(compares)
        return stop

    # -- advancement ----------------------------------------------------
    def step(self) -> bool:
        """Advance one batch; return False once the session has ended.

        Sorted accesses are fetched block-at-a-time through
        ``RplIterator.next_entries``: each live list contributes
        ``ceil(remaining / live)`` entries per fetch — exactly the
        per-list share the entry-at-a-time round-robin would consume
        before the next stopping-condition check — and the fetched
        batches are replayed in round-robin order, so candidate
        updates, heap traffic, and check boundaries are identical to
        the scalar loop (a list running dry mid-interval just shrinks
        the next fetch's divisor, as it shrank the scalar round).
        """
        if self.finished:
            return False
        candidates, offer = self.candidates, self.heap.offer
        while True:
            live = [slot for slot in self._lists if not slot[2].exhausted]
            if not live:
                self.finished = True
                return False  # every list exhausted: exact by construction
            need = self.batch_size - self._accesses_since_check
            rounds = -(-need // len(live))  # ceil
            batches = [(weight, bit, iterator.next_entries(rounds))
                       for weight, bit, iterator in live]
            fetched = sum(len(entries) for _w, _bit, entries in batches)
            # One score combination per sorted access, charged per batch.
            self.cost_model.score_combine(fetched)
            self._accesses_since_check += fetched
            for round_index in range(rounds):
                for weight, bit, entries in batches:
                    if round_index >= len(entries):
                        continue
                    score, sid, docid, endpos, length = entries[round_index]
                    key = (docid, endpos)
                    candidate = candidates.get(key)
                    if candidate is None:
                        candidate = candidates[key] = _Candidate(sid, length)
                    worst = candidate.worst = candidate.worst + weight * score
                    candidate.seen |= bit
                    offer(worst, key)

            if not fetched:
                self.finished = True
                return False  # every list exhausted: exact by construction
            if self._accesses_since_check >= self.batch_size:
                self._accesses_since_check = 0
                if self._should_stop():
                    self.early_stop = True
                    self.finished = True
                    return False
                return True

    def run(self) -> None:
        while self.step():
            pass

    def prune(self) -> None:
        """Abandon the session: its results can no longer reach the
        global top-k, so skip every undecoded tail block and discard
        the candidate set."""
        self.pruned = True
        self.finished = True
        for iterator in self.iterators.values():
            iterator.skip_until_score_below(float("inf"))

    # -- results --------------------------------------------------------
    def finalize(self) -> list[ScoredHit]:
        if self.early_stop:
            # Block-max pruning: the stop rule already proved no unread
            # entry can matter, so every undecoded tail block is skipped
            # outright — the skip directory made them free.
            for iterator in self.iterators.values():
                iterator.skip_until_score_below(float("inf"))
        # items() is already (-score, docid, endpos): the result order.
        candidates = self.candidates
        return [ScoredHit(score=score, docid=key[0], end_pos=key[1],
                          sid=candidates[key].sid,
                          length=candidates[key].length)
                for score, key in self.heap.items()]

    def stats_into(self, stats: EvaluationStats) -> None:
        """Accumulate per-list depth/length/skip counters into *stats*."""
        for term, iterator in self.iterators.items():
            stats.list_depths[term] = (stats.list_depths.get(term, 0)
                                       + iterator.depth)
            stats.list_lengths[term] = (stats.list_lengths.get(term, 0)
                                        + iterator.length)
            stats.rows_skipped += iterator.skipped


def ta_retrieve(catalog: IndexCatalog,
                segments: dict[str, IndexSegment],
                sids: frozenset[int] | set[int],
                k: int,
                cost_model: CostModel,
                term_weights: dict[str, float] | None = None,
                batch_size: int = DEFAULT_BATCH_SIZE,
                ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run the threshold algorithm for the top-*k* elements.

    Parameters
    ----------
    segments:
        For each query term, the RPL segment to perform sorted access
        on (resolved by the caller through the catalog).
    """
    snapshot = cost_model.snapshot()
    session = TaSession(catalog, segments, sids, k, cost_model,
                        term_weights, batch_size)
    session.run()
    hits = session.finalize()

    spent = cost_model.since(snapshot)
    stats = EvaluationStats(method="ta", cost=spent.total_cost,
                            ideal_cost=spent.ideal_cost,
                            candidates=len(session.candidates),
                            early_stop=session.early_stop)
    stats.record_block_io(spent)
    session.stats_into(stats)
    return hits, stats
