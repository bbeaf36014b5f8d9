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
  it, WAND pivots it (``skip_to`` / ``shallow``);
* :class:`TermFrontier` — a query's live ERPL cursors in head-position
  order, the one structure both document-order loops step over.

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

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import neg
from typing import Iterable, Iterator, Sequence

from ..corpus.document import M_POS
from ..index.catalog import IndexCatalog, IndexSegment
from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..index.rpl import RplEntry
from ..storage.blocks import BlockSequence
from ..storage.cost import CostModel
from ..storage.serialization import BlockColumns

__all__ = ["ElementSpan", "DUMMY_ELEMENT", "ExtentIterator", "PostingIterator",
           "RplIterator", "ErplIterator", "TermFrontier"]

Position = tuple[int, int]  # (docid, offset)

#: ``_entry(RplEntry, row)`` types a decoded 5-tuple as an entry without
#: a Python-level constructor frame — the per-row cost of sorted access.
_entry = tuple.__new__

#: ``cover_through`` of a stream with no open block to vouch for: below
#: every element key.
_NO_COVER: Position = (-1, -1)


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
        _key, stream_id, entry, stream = heappop(self._heap)
        self._push_from(stream_id, stream)
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
                rows = stream.take_rows_below(limit)
                self.depth += len(rows)
                out += rows
            self._push_from(stream_id, stream)
        return out

    def skip_to(self, key: Position) -> int:
        """Leap every stream whose head is below *key*; afterwards the
        term's head (if any) is the first element at or past *key*.
        Returns the number of undecoded blocks leapt."""
        leapt = 0
        heap = self._heap
        while heap and heap[0][0] < key:
            _key, stream_id, _head, stream = heappop(heap)
            self._discarded += 1
            leapt += stream.leap_to(key)
            self._push_from(stream_id, stream)
        return leapt

    def shallow(self, key: Position) -> tuple[float, Position | None]:
        """Block-max refinement for elements at or past *key*.

        Returns ``(bound, boundary)``: *bound* is the max over the live
        streams' header probes — sound per element because an element
        key belongs to exactly one (sid, run) stream — and *boundary*
        the last key the probed blocks jointly cover (``None`` when
        they cover every remaining element).  Header walk only, and for
        a stream whose open block covers *key* not even that: its
        block cover is the probe's answer, read in place.

        A stream's head row has already left the stream, so the probe
        — which speaks for the rows still *in* it, and moves on to the
        next block (or to "nothing left") once the head was the last
        row of its block or sid — cannot vouch for it: a head at or
        past *key* contributes its own exact score.
        """
        bound = 0.0
        boundary: Position | None = None
        for head_key, _stream_id, entry, stream in self._heap:
            if key <= stream.cover_through:
                stream_bound = stream.cover_max
                stream_boundary = stream.cover_boundary
            else:
                stream_bound, stream_boundary = stream.probe(key)
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


class TermFrontier:
    """The live term cursors of one document-order run, ordered by head
    position; term order breaks ties (what a stable sort of the terms
    by head position yields).

    :attr:`live` holds one ``(head position, term index, cursor)`` per
    cursor that still has a head.  Merge and WAND both read their step
    off its front — the head, the cursors sharing it, the runner-up —
    and a step only ever moves a prefix, so :meth:`repair` re-places
    those cursors and leaves the rest where they are.
    """

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

    def take_rows_below(self, bound: Position) -> list[RplEntry]:
        """Every remaining row of this sid strictly below *bound*, bulk.

        Stops at the first row at or past the bound (or outside the
        sid) without consuming it; crossing into a fresh block charges
        exactly what :meth:`next_row` would.
        """
        rows: list[RplEntry] = []
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

    # -- document-order skips (the WAND access path) -------------------
    def leap_to(self, bound: Position) -> int:
        """Advance so the next row is the first of this sid at or past
        *bound* — ``skip_to``-style advancement.  Blocks wholly below
        the target are leapt via the resident skip directory without
        being decoded (the deep descent lands on exactly one block);
        rows bypassed inside a decoded block count in ``rows_bypassed``.
        Returns the number of undecoded blocks leapt."""
        if self.done:
            return 0
        if self.index < self.count:
            lo = self._bisect(self.index, bound)
            self.rows_bypassed += lo - self.index
            self.index = lo
            if lo < self.count:
                if self.sids[lo] > self.sid:
                    self._finish()
                return 0
        start = self._block
        count = self._seq.block_count
        if start >= count:
            self._finish()
            return 0
        index = self._seq.find_first_block_ge((self.sid, *bound), start=start)
        if index >= count or self._seq.headers[index].first_key[0] > self.sid:
            self._finish()
            self._block = count
            return index - start
        columns = self._seq.read_block_columns(index)
        self._block = index + 1
        self._open(columns, 0)
        self.index = lo = self._bisect(0, bound)
        if self.sids[lo] > self.sid:
            self._finish()
        return index - start

    def _bisect(self, lo: int, bound: Position) -> int:
        """First row at or after *lo* of the open block whose full key
        is >= ``(sid, *bound)``; one comparison charged per step."""
        sid = self.sid
        docid, endpos = bound
        sids, docids, ends = self.sids, self.docids, self.ends
        hi = self.count
        if lo < hi and (sids[lo], docids[lo], ends[lo]) >= (sid, docid, endpos):
            # Already there (most leaps inside a block): the bisection
            # would halve [lo, hi) down onto lo — charged, not walked.
            self._model.compare((hi - lo).bit_length())
            return lo
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            row_sid = sids[mid]
            if row_sid < sid or (row_sid == sid and (
                    docids[mid] < docid
                    or (docids[mid] == docid and ends[mid] < endpos))):
                lo = mid + 1
            else:
                hi = mid
        if steps:
            self._model.compare(steps)
        return lo

    def probe(self, bound: Position) -> tuple[float, Position | None]:
        """Shallow block-max probe: bound the score of this stream's
        rows at or past *bound* without decoding anything.

        Returns ``(max_score, boundary)`` where ``max_score`` is the
        header bound of the block that would hold the first such row and
        *boundary* is the last position that block covers for this sid
        (``None`` when the block runs past the sid, i.e. covers its
        whole tail).  ``(0.0, None)`` when no such row can exist.  The
        bound is sound for every key in ``[bound, boundary]``: each such
        row, if present, lies inside the probed block.  The open
        block's answer is its cover (free); past it the directory is
        walked, one comparison charged per header examined."""
        if bound <= self.cover_through:
            return self.cover_max, self.cover_boundary
        found: tuple[float, Position | None] = (0.0, None)
        if self.done:
            return found
        probe_key = (self.sid, *bound)
        headers = self._seq.headers
        start = index = self._block
        count = self._seq.block_count
        while index < count:
            header = headers[index]
            index += 1
            if header.first_key[0] > self.sid:
                break
            if header.last_key >= probe_key:
                last_sid, last_docid, last_endpos = header.last_key
                found = header.max_score, ((last_docid, last_endpos)
                                           if last_sid == self.sid else None)
                break
        if index > start:
            self._model.compare(index - start)
        return found

    def skip_tail(self) -> int:
        """Abandon the stream: undecoded blocks that could still hold
        rows of this sid count as skipped; the stream is done."""
        if self.done:
            return 0
        self._finish()
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
