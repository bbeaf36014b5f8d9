"""Index iterators: the access paths of the retrieval strategies.

* :class:`ExtentIterator` — elements of one sid in (docid, endpos)
  order, with the ERA primitives ``first_element`` and
  ``next_element_after`` (paper §3.2);
* :class:`PostingIterator` — positions of one term, ending at the
  ``m-pos`` sentinel;
* :class:`RplIterator` — sorted (descending-score) access over one RPL
  segment, skipping entries whose sid is outside the query (paper §3.3);
  skipped entries are still decoded and therefore still cost, which is
  the mechanism behind TA losing to Merge on wide-scope lists;
* :class:`ErplIterator` — document-order cursor over the ERPL ranges
  of one (term, sid set), implemented as a k-way merge over the per-sid
  ranges (ERPL entries are keyed sid-major, paper §2.2); Merge drains
  it, WAND pivots it (``skip_to`` / ``shallow``).

Every iterator runs over block sequences — those of
:class:`~repro.index.elements.BlockedElements`,
:class:`~repro.index.postings.BlockedPostings` and the catalog's
segments.  Access is *batched*: a block is decoded only when its
resident header says it can matter — ``next_element_after`` and the
per-sid ERPL streams leap over blocks whose ``last_key`` precedes the
probe (``skip_to``), and the RPL path prunes undecoded tail blocks whose
block-max score cannot reach a threshold (``skip_until_score_below``).

Decoding is columnar: blocks are opened through
:meth:`~repro.storage.blocks.BlockSequence.read_block_columns` and the
iterators walk the parallel arrays directly, materializing row tuples
only for the entries they actually emit.  There is one API level:
:meth:`RplIterator.next_entries`, :meth:`ErplIterator.take_until` /
:meth:`ErplIterator.consume_head` and :meth:`PostingIterator.next_chunk`
hand decoded runs to the strategies, and the cost model is charged per
block opened, never per entry.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from operator import neg
from typing import Iterator, Sequence

from ..corpus.document import M_POS
from ..index.catalog import IndexCatalog, IndexSegment
from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..index.rpl import RplEntry
from ..storage.blocks import BlockSequence
from ..storage.cost import CostModel

__all__ = ["ElementSpan", "DUMMY_ELEMENT", "ExtentIterator", "PostingIterator",
           "RplIterator", "ErplIterator"]

Position = tuple[int, int]  # (docid, offset)

#: ``_entry(RplEntry, row)`` types a decoded 5-tuple as an entry without
#: a Python-level constructor frame — the per-row cost of sorted access.
_entry = tuple.__new__


@dataclass(frozen=True)
class ElementSpan:
    """An element as the Elements index describes it."""

    sid: int
    docid: int
    endpos: int
    length: int

    @property
    def startpos(self) -> int:
        return self.endpos - self.length

    @property
    def start(self) -> Position:
        return (self.docid, self.startpos)

    @property
    def end(self) -> Position:
        return (self.docid, self.endpos)

    def covers(self, position: Position) -> bool:
        """Strictly-inside test (tag positions make this exact)."""
        return self.start < position < self.end

    @property
    def is_dummy(self) -> bool:
        return self.endpos >= M_POS[1]


#: The "dummy element" the paper returns when an extent is exhausted:
#: end position m-pos, length zero.
DUMMY_ELEMENT = ElementSpan(sid=0, docid=M_POS[0], endpos=M_POS[1], length=0)


class ExtentIterator:
    """Iterates the extent of one sid in document/position order.

    Each probe bisects the sid's resident skip directory and decodes at
    most one block — columnar, so a probe touches only the key arrays.
    """

    def __init__(self, elements: BlockedElements, sid: int) -> None:
        self.sid = sid
        self._seq = elements.sequence(sid)
        self._model = elements.cost_model.resolve()
        self._block = 0

    def first_element(self) -> ElementSpan:
        """The first element of the extent, or the dummy when empty."""
        self._model.seek()
        if self._seq is None or self._seq.block_count == 0:
            return DUMMY_ELEMENT
        self._block = 0
        columns = self._seq.read_block_columns(0)
        docids, endpositions = columns.keys
        return ElementSpan(sid=self.sid, docid=docids[0],
                           endpos=endpositions[0],
                           length=columns.payloads[0][0])

    def next_element_after(self, position: Position) -> ElementSpan:
        """The extent element with the lowest end position > *position*.

        Implemented as a search over the Elements index, exactly as the
        paper describes: the skip directory is bisected first, so
        blocks ending before *position* are never decoded, then one
        block is decoded.  Returns the dummy element when exhausted.
        """
        docid, offset = position
        key_docid, key_endpos = docid, offset + 1
        self._model.seek()
        seq = self._seq
        if seq is None or seq.block_count == 0:
            return DUMMY_ELEMENT
        start = self._block
        if start > 0 and (key_docid, key_endpos) <= seq.headers[start - 1].last_key:
            start = 0  # non-monotone probe: restart the directory search
        index = seq.find_first_block_ge((key_docid, key_endpos), start=start)
        if index >= seq.block_count:
            self._block = seq.block_count - 1
            return DUMMY_ELEMENT
        self._block = index
        columns = seq.read_block_columns(index)
        docids, endpositions = columns.keys
        lo, hi = 0, columns.count
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            mid_docid = docids[mid]
            if mid_docid < key_docid or (mid_docid == key_docid
                                         and endpositions[mid] < key_endpos):
                lo = mid + 1
            else:
                hi = mid
        if steps:
            self._model.compare(steps)
        return ElementSpan(sid=self.sid, docid=docids[lo],
                           endpos=endpositions[lo],
                           length=columns.payloads[0][lo])

    def scan(self) -> Iterator[ElementSpan]:
        """All elements of the extent, in order."""
        if self._seq is None:
            return
        # Block-by-block through the charged read path: a full scan
        # must cost exactly what decoding every block costs — the
        # uncharged entries() bulk decode is for offline maintenance.
        sid = self.sid
        for index in range(self._seq.block_count):
            columns = self._seq.read_block_columns(index)
            docids, endpositions = columns.keys
            lengths = columns.payloads[0]
            for row in range(columns.count):
                yield ElementSpan(sid=sid, docid=docids[row],
                                  endpos=endpositions[row],
                                  length=lengths[row])


class PostingIterator:
    """Iterates the positions of one term, a fragment at a time.

    Whole fragments are decoded as single compressed blocks and handed
    out by :meth:`next_chunk` (charged per fragment opened, never per
    position); the last stored fragment ends with the ``m-pos``
    sentinel.
    """

    def __init__(self, postings: BlockedPostings, term: str) -> None:
        self.term = term
        self._seq = postings.sequence(term)
        self._block = 0
        postings.cost_model.seek()

    def next_chunk(self) -> list[Position] | None:
        """The next whole fragment of positions, or ``None`` at the end."""
        if self._seq is None or self._block >= self._seq.block_count:
            return None  # a term absent from the corpus is an empty list
        fragment = self._seq.read_block(self._block)
        self._block += 1
        return fragment


class _RplRun:
    """One score-descending run (base or delta) of an RPL segment.

    Charged sequential block opens — one positioning seek before the
    first, block-skip accounting when the tail is pruned — plus the
    decoded columns of the block the cursor stands in.
    """

    __slots__ = ("_seq", "_model", "block", "index", "count", "scores",
                 "sids", "docids", "ends", "lengths", "last_read_score")

    def __init__(self, sequence: BlockSequence, cost_model: CostModel) -> None:
        self._seq = sequence
        self._model = cost_model
        self.block = 0
        self.index = 0
        self.count = 0
        self.scores: Sequence[float] = ()
        self.sids: Sequence[int] = ()
        self.docids: Sequence[int] = ()
        self.ends: Sequence[int] = ()
        self.lengths: Sequence[int] = ()
        self.last_read_score = float("inf")

    def load(self) -> bool:
        """Open the next block as the current columns; False when the
        run has none left."""
        if self.block >= self._seq.block_count:
            return False
        if not self.block:
            # Positioning at the head of the list is the one random I/O
            # sorted access pays.
            self._model.seek()
        columns = self._seq.read_block_columns(self.block)
        self.block += 1
        (self.scores, self.sids, self.docids, self.ends,
         self.lengths) = columns.payloads
        self.count = columns.count
        self.index = 0
        return True

    @property
    def drained(self) -> bool:
        return (self.index >= self.count
                and self.block >= self._seq.block_count)

    @property
    def bound(self) -> float:
        """Best possible score of this run's unreturned entries: the
        last-read score inside a block, tightened by the next header's
        ``max_score`` at a block boundary (block-max), nothing once the
        run is drained."""
        if self.index < self.count:
            return self.last_read_score
        if self.block < self._seq.block_count:
            return min(self._seq.headers[self.block].max_score,
                       self.last_read_score)
        return 0.0

    def skip_tail(self, threshold: float) -> int:
        """Prune undecoded tail blocks whose block-max rules them out."""
        count = self._seq.block_count
        if self.block >= count:
            return 0
        if self._seq.headers[self.block].max_score >= threshold:
            return 0
        skipped = count - self.block
        self._model.block_skip(skipped)
        self.block = count
        return skipped


class RplIterator:
    """Sorted access over one RPL segment with sid filtering.

    ``next_entries(limit)`` is the access path: up to *limit* entries in
    descending score order whose sid belongs to *sids*, read straight
    off the decoded column arrays.  ``depth`` counts every entry
    consumed (including skipped ones) and ``last_read_score`` tracks
    the score of the most recent one.

    The segment is read as a merge over its runs — the base run plus
    any LSM delta runs appended by ``add_document``; a segment without
    deltas is the one-run case of the same merge.  Each run is
    score-descending with its own block-max directory, so always taking
    the best per-run head reproduces the exact global descending order,
    and :attr:`upper_bound` — the max of the per-run bounds — stays
    sound for TA.  :meth:`skip_until_score_below` prunes the undecoded
    tail once no remaining block can matter.
    """

    def __init__(self, catalog: IndexCatalog, segment: IndexSegment,
                 sids: frozenset[int] | set[int]) -> None:
        self._segment = segment
        self.term = segment.term
        self._sids = set(sids)
        model = catalog.cost_model.resolve()
        self._runs = [_RplRun(run, model)
                      for run in catalog.runs_for(segment)]
        self.depth = 0
        self.skipped = 0
        self.last_read_score = float("inf")
        self.exhausted = False

    @property
    def length(self) -> int:
        return self._segment.entry_count

    def next_entries(self, limit: int) -> list[RplEntry]:
        """Up to *limit* sorted-access entries, batched.

        Each round picks the run whose head sorts first and gallops
        through that run's decoded columns up to the runner-up's head
        (no runner-up: to the block end), so between run switches the
        loop touches nothing but the column arrays.  Returns fewer than
        *limit* entries only at exhaustion.
        """
        out: list[RplEntry] = []
        sids = self._sids
        while len(out) < limit:
            best: _RplRun | None = None
            best_key = runner_key = None
            for run in self._runs:
                if run.index >= run.count and not run.load():
                    continue
                index = run.index
                key = (-run.scores[index], run.docids[index], run.ends[index])
                if best_key is None or key < best_key:
                    best, best_key, runner_key = run, key, best_key
                elif runner_key is None or key < runner_key:
                    runner_key = key
            if best is None:
                self.exhausted = True
                self.last_read_score = 0.0
                break
            start = index = best.index
            scores, sid_col = best.scores, best.sids
            docid_col, end_col, len_col = best.docids, best.ends, best.lengths
            stop = best.count
            if runner_key is not None:
                # First row at or below the runner-up's score; rows that
                # tie it sort by (docid, endpos).  Entry keys are unique
                # across runs, so the head itself always precedes the
                # runner-up and the gallop takes at least one row.
                stop = bisect_left(scores, runner_key[0], index + 1, stop,
                                   key=neg)
                while (stop < best.count and -scores[stop] == runner_key[0]
                       and (docid_col[stop], end_col[stop]) < runner_key[1:]):
                    stop += 1
            taken = len(out)
            while index < stop and len(out) < limit:
                sid = sid_col[index]
                if sid in sids:
                    out.append(_entry(RplEntry, (
                        scores[index], sid, docid_col[index], end_col[index],
                        len_col[index])))
                index += 1
            best.index = index
            best.last_read_score = self.last_read_score = scores[index - 1]
            self.depth += index - start
            self.skipped += index - start - (len(out) - taken)
        return out

    def skip_until_score_below(self, threshold: float) -> int:
        """Prune undecoded tail blocks that block-max rules out.

        Sound because every run is score-descending: if a run's next
        undecoded block's ``max_score`` is below *threshold*, so is
        every entry after it in that run.  Returns the number of blocks
        skipped; the skip directory is resident, so pruning is free
        except for the counter.
        """
        skipped = sum(run.skip_tail(threshold) for run in self._runs)
        if all(run.drained for run in self._runs):
            # Nothing decoded remains either: the list is finished.
            self.exhausted = True
            self.last_read_score = 0.0
        return skipped

    @property
    def upper_bound(self) -> float:
        """Best possible score of any entry not yet returned: the max
        of the per-run bounds — any unreturned entry lives in some run,
        so the max is sound — and 0.0 once every run is drained."""
        bound = 0.0
        for run in self._runs:
            run_bound = run.bound
            if run_bound > bound:
                bound = run_bound
        return bound


class ErplIterator:
    """Document-order cursor over the ERPL ranges of (term, sids).

    One underlying block stream per sid (each begins with a seek and a
    skip-directory search that leaps straight to the sid's first block),
    merged by (docid, endpos) with a small in-memory heap — the standard
    way to read a sid-major layout in position order.

    A segment with LSM delta runs contributes one stream per (sid, run)
    pair to the same heap; entry keys are unique across runs (deltas
    carry new docids), so the merged order is exactly the order a
    compacted segment would stream.

    Both document-order strategies read through this one cursor.
    :meth:`take_until` is Merge's batch access path: it drains every
    entry strictly below a position bound in one call, galloping
    through the winning stream's decoded column arrays between heap
    touches, so the per-entry heap traffic of :meth:`consume_head`
    disappears on single-holder stretches.  :meth:`skip_to`,
    :meth:`shallow`, :meth:`skip_tail` and :meth:`static_bound` are
    WAND's: ``skip_to`` forwards the leap to every stream whose head is
    below the target, so blocks wholly under it are never decoded.

    """

    def __init__(self, catalog: IndexCatalog, segment: IndexSegment,
                 sids: frozenset[int] | set[int]) -> None:
        self.term = segment.term
        self.length = segment.entry_count
        #: Rows materialized out of the streams (sorted-access depth).
        self.depth = 0
        self._discarded = 0
        self._catalog = catalog
        self._heap: list[tuple[Position, int, RplEntry]] = []
        self._streams: list[_ErplSidStream] = []
        self._runs = catalog.runs_for(segment)
        model = catalog.cost_model.resolve()
        stream_id = 0
        for sid in sorted(sids):
            for sequence in self._runs:
                self._streams.append(_ErplSidStream(sequence, sid, model))
                self._push_from(stream_id)
                stream_id += 1

    def static_bound(self, bound_segment: IndexSegment | None = None) -> float:
        """The term's WAND upper bound: the resident RPL block-max
        directory head when *bound_segment* (an RPL of the same term)
        is given (max over live runs), else the max over the ERPL's own
        block headers — both header-only, nothing is decoded for it."""
        bound = 0.0
        if bound_segment is not None:
            # The RPL directory is score-descending: the first header's
            # max_score of each live run is the run's best stored score.
            for run in self._catalog.runs_for(bound_segment):
                if run.block_count:
                    bound = max(bound, run.headers[0].max_score)
        else:
            for run in self._runs:
                for header in run.headers:
                    bound = max(bound, header.max_score)
        return bound

    def _push_from(self, stream_id: int) -> None:
        row = self._streams[stream_id].next_row()
        if row is None:
            return
        self.depth += 1
        sid, docid, endpos, score, length = row
        entry = _entry(RplEntry, (score, sid, docid, endpos, length))
        heapq.heappush(self._heap, ((docid, endpos), stream_id, entry))

    @property
    def current(self) -> RplEntry | None:
        """The entry at the iterator's head, or None when exhausted."""
        if not self._heap:
            return None
        return self._heap[0][2]

    @property
    def current_position(self) -> Position:
        """The head element key, or ``M_POS`` once exhausted."""
        if not self._heap:
            return M_POS
        return self._heap[0][0]

    def consume_head(self) -> RplEntry:
        """Pop and return the head entry (one element, fully scored)."""
        _key, stream_id, entry = heapq.heappop(self._heap)
        self._push_from(stream_id)
        return entry

    def take_until(self, bound: Position) -> list[RplEntry]:
        """Pop and return every entry with position strictly < *bound*.

        The entries come back in position order, exactly as repeated
        :meth:`consume_head` would deliver them; block decodes are
        charged identically because both open the same blocks.
        """
        out: list[RplEntry] = []
        heap = self._heap
        while heap and heap[0][0] < bound:
            position, stream_id, entry = heapq.heappop(heap)
            out.append(entry)
            # Gallop: the popped stream stays the global head while its
            # next positions undercut both *bound* and the best other
            # stream, so bulk-take from its decoded block directly.
            limit = bound
            if heap and heap[0][0] < limit:
                limit = heap[0][0]
            rows = self._streams[stream_id].take_rows_below(limit)
            if rows:
                self.depth += len(rows)
                for sid, docid, endpos, score, length in rows:
                    out.append(_entry(RplEntry,
                                      (score, sid, docid, endpos, length)))
            self._push_from(stream_id)
        return out

    def skip_to(self, key: Position) -> int:
        """Leap every stream whose head is below *key*; afterwards the
        term's head (if any) is the first element at or past *key*.
        Returns the number of undecoded blocks leapt."""
        leapt = 0
        heap = self._heap
        while heap and heap[0][0] < key:
            _key, stream_id, _entry = heapq.heappop(heap)
            self._discarded += 1
            leapt += self._streams[stream_id].leap_to(key)
            self._push_from(stream_id)
        return leapt

    def shallow(self, key: Position) -> tuple[float, Position | None]:
        """Block-max refinement for elements at or past *key*.

        Returns ``(bound, boundary)``: *bound* is the max over the live
        streams' header probes — sound per element because an element
        key belongs to exactly one (sid, run) stream — and *boundary*
        the last key the probed blocks jointly cover (``None`` when
        they cover every remaining element).  Header walk only.

        A stream's head row has already left the stream, so the probe
        — which speaks for the rows still *in* it, and moves on to the
        next block (or to "nothing left") once the head was the last
        row of its block or sid — cannot vouch for it: a head at or
        past *key* contributes its own exact score.
        """
        bound = 0.0
        boundary: Position | None = None
        streams = self._streams
        for head_key, stream_id, entry in self._heap:
            stream_bound, stream_boundary = streams[stream_id].probe(key)
            if entry[0] > stream_bound and head_key >= key:
                stream_bound = entry[0]  # the head's own (exact) score
            if stream_bound > bound:
                bound = stream_bound
            if stream_boundary is not None and (boundary is None
                                                or stream_boundary < boundary):
                boundary = stream_boundary
        return bound, boundary

    def skip_tail(self) -> int:
        """Abandon the term: remaining blocks count as skipped."""
        skipped = 0
        for stream in self._streams:
            skipped += stream.skip_tail()
        self._heap.clear()
        return skipped

    @property
    def skipped(self) -> int:
        """Rows bypassed without individual materialization."""
        return self._discarded + sum(stream.rows_bypassed
                                     for stream in self._streams)

    @property
    def exhausted(self) -> bool:
        return not self._heap


class _ErplSidStream:
    """Sequential reader over one sid's range of an ERPL block sequence.

    Walks the decoded column arrays (``sid``/``docid``/``endpos`` keys,
    ``score``/``length`` payloads); :meth:`take_rows_below` bulk-emits
    the run of rows under a position bound without re-materializing
    per-row state.
    """

    def __init__(self, sequence: BlockSequence, sid: int,
                 cost_model: CostModel) -> None:
        self.sid = sid
        self._seq = sequence
        self._model = cost_model
        self._sid_col: tuple = ()
        self._docid_col: tuple = ()
        self._end_col: tuple = ()
        self._score_col: tuple = ()
        self._len_col: tuple = ()
        self._count = 0
        self._index = 0
        #: Rows bypassed inside decoded blocks by :meth:`leap_to`.
        self.rows_bypassed = 0
        self._done = sequence.block_count == 0
        self._model.seek()
        if self._done:
            self._block = 0
            return
        # Leap the skip directory to the first block that can hold the sid.
        self._block = sequence.find_first_block_ge((sid, 0, 0))
        self._first_block = True

    @property
    def done(self) -> bool:
        return self._done

    def _load_next_block(self) -> bool:
        """Decode the next in-range block into the column fields."""
        if self._block >= self._seq.block_count:
            return False
        header = self._seq.headers[self._block]
        if header.first_key[0] > self.sid:
            return False
        columns = self._seq.read_block_columns(self._block)
        self._block += 1
        sid_col, docid_col, end_col = columns.keys
        start = 0
        if self._first_block:
            # Bisect past smaller-sid entries sharing the block.  The
            # full key probe is (sid, 0, 0), so the lexicographic test
            # collapses to the sid column alone.
            self._first_block = False
            sid = self.sid
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
        self._sid_col = sid_col
        self._docid_col = docid_col
        self._end_col = end_col
        self._score_col, self._len_col = columns.payloads
        self._count = columns.count
        self._index = start
        return True

    def next_row(self) -> tuple | None:
        while True:
            if self._done:
                return None
            index, count = self._index, self._count
            sid = self.sid
            sid_col = self._sid_col
            while index < count:
                row_sid = sid_col[index]
                if row_sid == sid:
                    self._index = index + 1
                    return (sid, self._docid_col[index], self._end_col[index],
                            self._score_col[index], self._len_col[index])
                if row_sid > sid:
                    self._index = index
                    self._done = True
                    return None
                index += 1
            self._index = index
            if not self._load_next_block():
                self._done = True
                return None

    def take_rows_below(self, bound: Position) -> list[tuple]:
        """Every remaining row of this sid strictly below *bound*, bulk.

        Stops at the first row at or past the bound (or outside the
        sid) without consuming it; crossing into a fresh block charges
        exactly what :meth:`next_row` would.
        """
        rows: list[tuple] = []
        bound_docid, bound_endpos = bound
        while True:
            if self._done:
                return rows
            index, count = self._index, self._count
            sid = self.sid
            sid_col, docid_col = self._sid_col, self._docid_col
            end_col = self._end_col
            score_col, len_col = self._score_col, self._len_col
            while index < count:
                row_sid = sid_col[index]
                if row_sid != sid:
                    if row_sid > sid:
                        self._index = index
                        self._done = True
                        return rows
                    index += 1
                    continue
                docid = docid_col[index]
                if docid > bound_docid:
                    self._index = index
                    return rows
                endpos = end_col[index]
                if docid == bound_docid and endpos >= bound_endpos:
                    self._index = index
                    return rows
                rows.append((sid, docid, endpos,
                             score_col[index], len_col[index]))
                index += 1
            self._index = index
            if not self._load_next_block():
                self._done = True
                return rows

    # -- document-order skips (the WAND access path) -------------------
    def leap_to(self, bound: Position) -> int:
        """Advance so the next row is the first of this sid at or past
        *bound* — ``skip_to``-style advancement.  Blocks wholly below
        the target are leapt via the resident skip directory without
        being decoded (the deep descent lands on exactly one block);
        rows bypassed inside a decoded block count in ``rows_bypassed``.
        Returns the number of undecoded blocks leapt."""
        if self._done:
            return 0
        probe_key = (self.sid, bound[0], bound[1])
        if self._index < self._count:
            sid_col, docid_col = self._sid_col, self._docid_col
            end_col = self._end_col
            lo, hi = self._index, self._count
            steps = 0
            while lo < hi:
                mid = (lo + hi) // 2
                steps += 1
                if (sid_col[mid], docid_col[mid], end_col[mid]) < probe_key:
                    lo = mid + 1
                else:
                    hi = mid
            if steps:
                self._model.compare(steps)
            self.rows_bypassed += lo - self._index
            self._index = lo
            if lo < self._count:
                if sid_col[lo] > self.sid:
                    self._done = True
                return 0
        start = self._block
        count = self._seq.block_count
        if start >= count:
            self._done = True
            return 0
        index = self._seq.find_first_block_ge(probe_key, start=start)
        leapt = index - start
        if index >= count or self._seq.headers[index].first_key[0] > self.sid:
            self._done = True
            self._block = count
            return leapt
        self._block = index
        self._position_at(probe_key)
        return leapt

    def _position_at(self, probe_key: tuple[int, int, int]) -> None:
        """Decode block ``self._block``, positioned at the first row
        whose full key is >= *probe_key*."""
        columns = self._seq.read_block_columns(self._block)
        self._block += 1
        sid_col, docid_col, end_col = columns.keys
        lo, hi = 0, columns.count
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if (sid_col[mid], docid_col[mid], end_col[mid]) < probe_key:
                lo = mid + 1
            else:
                hi = mid
        if steps:
            self._model.compare(steps)
        self._sid_col = sid_col
        self._docid_col = docid_col
        self._end_col = end_col
        self._score_col, self._len_col = columns.payloads
        self._count = columns.count
        self._index = lo
        self._first_block = False
        if lo < columns.count and sid_col[lo] > self.sid:
            self._done = True

    def probe(self, bound: Position) -> tuple[float, Position | None]:
        """Shallow block-max probe: bound the score of this stream's
        rows at or past *bound* without decoding anything.

        Returns ``(max_score, boundary)`` where ``max_score`` is the
        header bound of the block that would hold the first such row and
        *boundary* is the last position that block covers for this sid
        (``None`` when the block runs past the sid, i.e. covers its
        whole tail).  ``(0.0, None)`` when no such row can exist.  The
        bound is sound for every key in ``[bound, boundary]``: each such
        row, if present, lies inside the probed block."""
        if self._done:
            return 0.0, None
        probe_key = (self.sid, bound[0], bound[1])
        headers = self._seq.headers
        if self._index < self._count:
            header = headers[self._block - 1]
            if header.last_key >= probe_key:
                return header.max_score, self._sid_clip(header.last_key)
        found: tuple[float, Position | None] = (0.0, None)
        start = index = self._block
        count = self._seq.block_count
        while index < count:
            header = headers[index]
            index += 1
            if header.first_key[0] > self.sid:
                break
            if header.last_key >= probe_key:
                found = header.max_score, self._sid_clip(header.last_key)
                break
        if index > start:
            self._model.compare(index - start)  # one per header examined
        return found

    def _sid_clip(self, last_key: tuple[int, int, int]) -> Position | None:
        if last_key[0] == self.sid:
            return (last_key[1], last_key[2])
        return None  # block runs past the sid: covers its whole tail

    def skip_tail(self) -> int:
        """Abandon the stream: undecoded blocks that could still hold
        rows of this sid count as skipped; the stream is done."""
        if self._done:
            return 0
        self._done = True
        headers = self._seq.headers
        index = self._block
        count = self._seq.block_count
        while index < count and headers[index].first_key[0] <= self.sid:
            index += 1
        skipped = index - self._block
        if skipped:
            self._model.block_skip(skipped)
        self._block = count
        return skipped
