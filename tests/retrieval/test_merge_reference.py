"""Merge is read differently, never charged differently.

:func:`repro.retrieval.merge.merge_retrieve` reads each (term, sid,
run) range of the ERPLs once, sums the scores per element in term order
and replays the block opens of the lockstep loop through the page cache
in the loop's order.  The loop it replaced — the parent commit's
``merge_retrieve`` over a :class:`TermFrontier`, with the
``ErplIterator.take_until`` / ``consume_head`` and
``_ErplSidStream.take_rows_below`` path it drained the ranges by — is
kept here **verbatim** (methods as functions, the ``reference_`` name
aside) as the oracle, the way ``test_era_reference.py`` keeps the ERA
sweep — and so are the cursors it read through, which ``src`` no longer
has: the parts of ``ErplIterator`` (constructor, ``_push_from``, the
heap), of the per-sid ``_ErplSidStream`` and of ``TermFrontier`` that
the loop used.  Both run over one catalog, each behind a fresh page cache of
one capacity, twice (cold, then warm), and must agree on the hits,
every ``CostCounters`` field, ``read_units``, both cost reprs, the
candidates and list depths, the pool's hits, misses and evictions, and
the **raw** page-touch sequence: both sides touch one catalog's page
ids, so the ids are compared as they are — numbering them by first
touch would hide two first touches made in the other order.

``REPRO_MERGE_EXAMPLES`` raises the example count (CI uses 300).
"""

from __future__ import annotations

import inspect
import os
import random
from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import asdict
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus, XMLParser)
from repro.corpus.document import M_POS
from repro.index.catalog import IndexCatalog, IndexSegment
from repro.index.rpl import RplEntry
from repro.retrieval import TrexEngine
from repro.retrieval import merge as merge_module
from repro.retrieval.iterators import Position
from repro.retrieval.result import EvaluationStats
from repro.scoring.combine import ScoredHit
from repro.storage.blocks import BlockSequence
from repro.storage.cost import CostModel
from repro.storage.serialization import BlockColumns
from repro.summary import IncomingSummary

from .test_era_reference import TouchLog

EXAMPLES = int(os.environ.get("REPRO_MERGE_EXAMPLES", "25"))
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}

_entry = tuple.__new__


# ----------------------------------------------------------------------
# The cursors the loop read through, as they were
# ----------------------------------------------------------------------
#: ``cover_through`` of a stream with no open block to vouch for: below
#: every element key.
_NO_COVER = (-1, -1)


class ErplIterator:
    """Document-order cursor over the ERPL ranges of (term, sids): one
    :class:`_ErplSidStream` per (sid, run), merged by (docid, endpos)
    with a small in-memory heap (``src``'s, the parts the loop used)."""

    def __init__(self, catalog: IndexCatalog, segment: IndexSegment,
                 sids: frozenset[int] | set[int]) -> None:
        self.term = segment.term
        self.length = segment.entry_count
        #: Rows materialized out of the streams (sorted-access depth).
        self.depth = 0
        self._discarded = 0
        self._catalog = catalog
        #: One ``(head key, stream id, head entry, stream)`` per stream
        #: that still has a head; the id makes the order total.
        self._heap: list[tuple[Position, int, RplEntry, _ErplSidStream]] = []
        self._streams: list[_ErplSidStream] = []
        self._runs = catalog.runs_for(segment)
        model = catalog.cost_model.resolve()
        for sid in sorted(sids):
            for sequence in self._runs:
                stream = _ErplSidStream(sequence, sid, model)
                self._push_from(len(self._streams), stream)
                self._streams.append(stream)


    def _push_from(self, stream_id: int, stream: _ErplSidStream) -> None:
        """Make the stream's next row its head.  Inside a decoded block
        the row comes straight off the stream's columns; the last row of
        a block, a block boundary and the end of the sid are
        :meth:`_ErplSidStream.next_row`'s, which keeps the block cover."""
        index = stream.index
        sid = stream.sid
        if index + 1 < stream.count and stream.sids[index] == sid:
            stream.index = index + 1
            docid = stream.docids[index]
            endpos = stream.ends[index]
            entry = _entry(RplEntry, (stream.scores[index], sid, docid,
                                      endpos, stream.lengths[index]))
        else:
            entry = stream.next_row()
            if entry is None:
                return
            docid = entry[2]
            endpos = entry[3]
        self.depth += 1
        heappush(self._heap, ((docid, endpos), stream_id, entry, stream))


    @property
    def current_position(self) -> Position:
        """The head element key, or ``M_POS`` once exhausted."""
        if not self._heap:
            return M_POS
        return self._heap[0][0]


    @property
    def exhausted(self) -> bool:
        return not self._heap


class TermFrontier:
    """The live term cursors of one document-order run, ordered by head
    position; term order breaks ties (what a stable sort of the terms
    by head position yields)."""

    def __init__(self, cursors: Iterable[ErplIterator]) -> None:
        self.live = sorted((cursor.current_position, index, cursor)
                           for index, cursor in enumerate(cursors)
                           if not cursor.exhausted)

    def repair(self, moved: int) -> None:
        """Re-place the first *moved* cursors after they advanced; an
        exhausted cursor leaves the frontier."""
        live = self.live
        front = live[:moved]
        del live[:moved]
        for _position, index, cursor in front:
            heap = cursor._heap
            if heap:
                insort(live, (heap[0][0], index, cursor))



class _ErplSidStream:
    """Sequential reader over one sid's range of an ERPL block sequence.

    Holds the decoded columns of the block it stands in (``sids`` /
    ``docids`` / ``ends`` keys, ``scores`` / ``lengths`` payloads) with
    ``index`` the next unread row, for the cursor to read in place, and
    that block's **cover**: every row still in the stream at a key
    ``<= cover_through`` lies in the open block, so it scores at most
    ``cover_max`` (the header's block-max) and ``cover_boundary`` is
    the last key the block holds for this sid (``None``: it runs past
    the sid and covers the whole tail).  The cover is recorded when a
    block is opened and withdrawn (``_NO_COVER``) with the block's last
    row or the sid's.
    """

    __slots__ = ("sid", "_seq", "_model", "_block", "_first_block", "done",
                 "sids", "docids", "ends", "scores", "lengths", "count",
                 "index", "rows_bypassed", "cover_through", "cover_max",
                 "cover_boundary")

    def __init__(self, sequence: BlockSequence, sid: int,
                 cost_model: CostModel) -> None:
        self.sid = sid
        self._seq = sequence
        self._model = cost_model
        self.sids: Sequence[int] = ()
        self.docids: Sequence[int] = ()
        self.ends: Sequence[int] = ()
        self.scores: Sequence[float] = ()
        self.lengths: Sequence[int] = ()
        self.count = 0
        self.index = 0
        #: Rows bypassed inside decoded blocks by :meth:`leap_to`.
        self.rows_bypassed = 0
        self.cover_through = _NO_COVER
        self.cover_max = 0.0
        self.cover_boundary: Position | None = None
        self.done = sequence.block_count == 0
        self._first_block = True
        self._model.seek()
        # Leap the skip directory to the first block that can hold the sid.
        self._block = (0 if self.done
                       else sequence.find_first_block_ge((sid, 0, 0)))

    def _finish(self) -> None:
        """Nothing of this sid is left: no rows, no cover."""
        self.done = True
        self.count = 0
        self.cover_through = _NO_COVER

    def _open(self, columns: BlockColumns, index: int) -> None:
        """Stand at row *index* of the block just read, under its cover."""
        self.sids, self.docids, self.ends = columns.keys
        self.scores, self.lengths = columns.payloads
        self.count = columns.count
        self.index = index
        self._first_block = False
        header = self._seq.headers[self._block - 1]
        last_sid, last_docid, last_endpos = header.last_key
        self.cover_max = header.max_score
        if last_sid == self.sid:
            self.cover_through = self.cover_boundary = (last_docid,
                                                        last_endpos)
        else:  # the block runs past the sid: it covers the whole tail
            self.cover_through = M_POS
            self.cover_boundary = None

    def _load_next_block(self) -> bool:
        """Decode the next in-range block into the column fields."""
        if self._block >= self._seq.block_count:
            return False
        if self._seq.headers[self._block].first_key[0] > self.sid:
            return False
        columns = self._seq.read_block_columns(self._block)
        self._block += 1
        start = 0
        if self._first_block:
            # Bisect past smaller-sid entries sharing the block.  The
            # full key probe is (sid, 0, 0), so the lexicographic test
            # collapses to the sid column alone.
            sid = self.sid
            sid_col = columns.keys[0]
            lo, hi = 0, columns.count
            steps = 0
            while lo < hi:
                mid = (lo + hi) // 2
                steps += 1
                if sid_col[mid] < sid:
                    lo = mid + 1
                else:
                    hi = mid
            if steps:
                self._model.compare(steps)
            start = lo
        self._open(columns, start)
        return True

    def next_row(self) -> RplEntry | None:
        """The next row of this sid — opening the next block once the
        decoded one is used up — or ``None`` at the end of the sid."""
        while not self.done:
            index = self.index
            if index < self.count:
                sid = self.sid
                if self.sids[index] != sid:
                    break
                self.index = index + 1
                if index + 1 == self.count:
                    self.cover_through = _NO_COVER  # the block is used up
                return _entry(RplEntry, (self.scores[index], sid,
                                         self.docids[index], self.ends[index],
                                         self.lengths[index]))
            if not self._load_next_block():
                break
        self._finish()
        return None



# ----------------------------------------------------------------------
# The loop, as it was
# ----------------------------------------------------------------------
def consume_head(self):
    """``ErplIterator.consume_head``: pop and return the head entry
    (one element, fully scored)."""
    _key, stream_id, entry, stream = heappop(self._heap)
    self._push_from(stream_id, stream)
    return entry


def take_until(self, bound):
    """``ErplIterator.take_until``: pop and return every entry with
    position strictly < *bound*.

    The entries come back in position order, exactly as repeated
    :meth:`consume_head` would deliver them; block decodes are
    charged identically because both open the same blocks.
    """
    out = []
    heap = self._heap
    while heap and heap[0][0] < bound:
        _key, stream_id, entry, stream = heappop(heap)
        out.append(entry)
        # Gallop: the popped stream stays the global head while its
        # next positions undercut both *bound* and the best other
        # stream, so bulk-take from its decoded block directly.
        limit = bound
        if heap and heap[0][0] < limit:
            limit = heap[0][0]
        index = stream.index
        if (index < stream.count
                and (stream.docids[index], stream.ends[index]) < limit):
            rows = take_rows_below(stream, limit)
            self.depth += len(rows)
            out += rows
        self._push_from(stream_id, stream)
    return out


def take_rows_below(self, bound):
    """``_ErplSidStream.take_rows_below``: every remaining row of this
    sid strictly below *bound*, bulk.

    Stops at the first row at or past the bound (or outside the
    sid) without consuming it; crossing into a fresh block charges
    exactly what :meth:`next_row` would.
    """
    rows = []
    bound_docid, bound_endpos = bound
    sid = self.sid
    while not self.done:
        index, count = self.index, self.count
        sids, docids, ends = self.sids, self.docids, self.ends
        scores, lengths = self.scores, self.lengths
        while index < count:
            if sids[index] != sid:
                self._finish()
                return rows
            docid = docids[index]
            endpos = ends[index]
            if docid > bound_docid or (docid == bound_docid
                                       and endpos >= bound_endpos):
                self.index = index
                return rows
            rows.append(_entry(RplEntry, (scores[index], sid, docid,
                                          endpos, lengths[index])))
            index += 1
        if not self._load_next_block():
            self._finish()
    return rows


def reference_merge_retrieve(catalog, segments, sids, cost_model,
                             term_weights=None):
    """Run the Merge algorithm of Figure 3."""
    snapshot = cost_model.snapshot()
    iterators = [ErplIterator(catalog, segment, sids)
                 for segment in segments.values()]
    weights = [1.0 if term_weights is None
               else term_weights.get(iterator.term, 1.0)
               for iterator in iterators]

    hits = []
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
            run = take_until(holder, live[1][0] if len(live) > 1 else M_POS)
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
            entry = consume_head(holder)  # lines 13-17
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
    stats.price(spent)
    for iterator in iterators:
        stats.list_depths[iterator.term] = iterator.depth
        stats.list_lengths[iterator.term] = iterator.depth
    return hits, stats


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
def build_engine(kind, corpus_seed, num_docs, order_seed, block_size, nexi,
                 delta_docs):
    """*num_docs* documents of one corpus in a shuffled order, blocks of
    *block_size* rows, the query's universal lists built, then
    *delta_docs* more documents ingested: an LSM delta run on every
    list whose term they hold."""
    corpus = CORPORA[kind][0](num_docs=num_docs + delta_docs,
                              seed=corpus_seed)
    order = list(range(num_docs + delta_docs))
    random.Random(order_seed).shuffle(order)
    parser = XMLParser()
    collection = Collection(name=kind)
    for docid, source in enumerate(order[:num_docs]):
        collection.add(parser.parse(corpus.document_xml(source), docid))
    engine = TrexEngine(collection,
                        IncomingSummary(collection, alias=CORPORA[kind][1]()),
                        block_size=block_size)
    engine.materialize_for_query(nexi, scope="universal")
    for source in order[num_docs:]:
        engine.add_document(corpus.document_xml(source))
    return engine


def fresh_meters(engine):
    """The engine's cost model, zeroed: a cost is a difference of float
    meters, whose last digit depends on where the meters stood."""
    model = engine.cost_model.resolve()
    model.reset()
    return model


#: What ``EvaluationStats.price`` sets from the meter besides the costs.
PRICED = ("blocks_read", "blocks_decoded", "blocks_skipped",
          "entries_decoded")


def run(retrieve, engine, clause, capacity):
    """Two passes (cold, warm) of *retrieve* behind a fresh page cache
    of *capacity* pages: what each returned and charged, and every page
    the pool was asked about."""
    model = fresh_meters(engine)
    cache = TouchLog(capacity, model)
    engine.catalog.use_cache(cache)
    segments = engine.segments_for(clause, "erpl")
    passes = []
    for _ in range(2):
        snapshot = model.snapshot()
        hits, stats = retrieve(engine.catalog, segments, clause.sids, model,
                               dict(clause.term_weights))
        spent = model.since(snapshot)
        passes.append({
            "hits": [(hit.score, hit.docid, hit.end_pos, hit.sid, hit.length)
                     for hit in hits],
            # Diagnostics only: a strategy does not price itself; its
            # cost and block counts are the meter's, below.
            "stats": {name: value for name, value in vars(stats).items()
                      if isinstance(value, (int, bool, str, dict))
                      and name not in PRICED},
            "counters": asdict(spent.counters),
            "read_units": spent.read_units,
            "meters": (repr(spent.total_cost), repr(spent.ideal_cost)),
            "pool": (cache.hits, cache.misses, cache.evictions, len(cache)),
        })
    return passes, cache.touched


def check_case(qid, corpus_seed, num_docs, order_seed, block_size,
               delta_docs, clause_pick, capacity, k):
    nexi = PAPER_QUERIES[qid].nexi
    engine = build_engine(PAPER_QUERIES[qid].collection, corpus_seed,
                          num_docs, order_seed, block_size, nexi, delta_docs)
    translated = engine.translate(nexi)
    clauses = [translated.flat_clause(), *translated.clauses]
    clause = clauses[clause_pick % len(clauses)]

    def retrieve(*args):
        return merge_module.merge_retrieve(*args, k=k)

    got, got_touched = run(retrieve, engine, clause, capacity)
    want, want_touched = run(reference_merge_retrieve, engine, clause,
                             capacity)
    for one_pass in want:
        one_pass["hits"] = one_pass["hits"][:k]
    assert got == want
    assert got_touched == want_touched
    return engine.catalog.delta_snapshot()["delta_runs"], want[0]["pool"][2]


CASES = dict(
    corpus_seed=st.integers(0, 10**6), num_docs=st.integers(6, 14),
    order_seed=st.integers(0, 10**6), block_size=st.integers(2, 8),
    delta_docs=st.integers(0, 2), clause_pick=st.integers(0, 3),
    capacity=st.sampled_from([1, 2, 4, 16, 4096]),
    k=st.one_of(st.none(), st.integers(1, 40)))


@given(qid=st.sampled_from(sorted(PAPER_QUERIES)), **CASES)
@settings(max_examples=EXAMPLES, deadline=None)
def test_merge_equals_the_reference_loop(qid, **case):
    check_case(qid, **case)


#: Fixed cells for the seeded mutations: every multi-term query, blocks
#: of two and three rows, delta runs, pools that evict and one that
#: does not.
MUTATION_CELLS = [
    dict(qid=qid, corpus_seed=42, num_docs=14, order_seed=order_seed,
         block_size=block_size, delta_docs=2, clause_pick=0,
         capacity=capacity, k=None)
    for qid in (202, 203, 260, 270)
    for order_seed, block_size, capacity in ((1, 2, 4), (7, 3, 4096))]


def _sweep():
    return [check_case(**cell) for cell in MUTATION_CELLS]


def test_the_mutation_cells_pass_unmutated():
    observed = _sweep()
    assert all(delta_runs for delta_runs, _evictions in observed)
    assert any(evictions for _delta_runs, evictions in observed)


def mutate(monkeypatch, old, new):
    """Swap ``merge_retrieve`` for a copy of its source with *old*
    replaced by *new* (which must occur exactly once)."""
    source = inspect.getsource(merge_module)
    assert source.count(old) == 1, old
    namespace = {"__name__": merge_module.__name__,
                 "__package__": merge_module.__package__}
    exec(compile(source.replace(old, new), merge_module.__file__, "exec"),
         namespace)
    monkeypatch.setattr(merge_module, "merge_retrieve",
                        namespace["merge_retrieve"])


def test_fails_when_first_opens_replay_run_major(monkeypatch):
    """Mutation: a term's streams are built run by run, each run's sids
    in turn, so the first opens of the delta runs replay after all of
    the base run's instead of sid by sid."""
    mutate(monkeypatch,
           "        for sid in sids:\n"
           "            for run, slot in zip(term_runs, slots):\n",
           "        for run, slot in zip(term_runs, slots):\n"
           "            for sid in sids:\n")
    with pytest.raises(AssertionError):
        _sweep()


def test_fails_when_term_ties_replay_in_reverse(monkeypatch):
    """Mutation: two terms that open their next blocks on consuming one
    position replay the opens last term first."""
    mutate(monkeypatch, "(codes[-1] << shift | tag)",
           "(codes[-1] << shift | (len(runs) - 1 - tag))")
    with pytest.raises(AssertionError):
        _sweep()
