"""Index iterators: the access paths of the retrieval strategies.

* :class:`ExtentIterator` — the elements of one sid in (docid, endpos)
  order, walked against ERA's sweep with the primitives
  ``firstElement`` and ``nextElementAfter`` (paper §3.2);
  :func:`scan_extent` reads a whole extent;
* :class:`PostingIterator` — positions of one term, ending at the
  ``m-pos`` sentinel;
* :class:`RplIterator` — sorted (descending-score) access over one RPL
  segment, skipping entries whose sid is outside the query (paper §3.3);
  skipped entries are still decoded and therefore still cost, which is
  the mechanism behind TA losing to Merge on wide-scope lists.

The ERPLs have no iterator: Merge and WAND read their (term, sid, run)
ranges in bulk (:mod:`repro.retrieval.merge`).

Every iterator runs over block sequences — those of
:class:`~repro.index.elements.BlockedElements`,
:class:`~repro.index.postings.BlockedPostings` and the catalog's
segments.  Access is *batched*: a block is decoded only when its
resident header says it can matter — the extent walk's probes leap over
blocks whose ``last_key`` precedes the probe, and the RPL path prunes
undecoded tail blocks whose block-max score cannot reach a threshold
(``skip_until_score_below``).

Decoding is columnar: blocks are opened through
:meth:`~repro.storage.blocks.BlockSequence.read_block_columns` — or, for
ERA's two iterators, read through a
:class:`~repro.storage.blocks.BlockOpenLog` that charges the same opens
in the sweep's order — and the iterators walk the parallel arrays
directly, materializing row tuples only for the entries they actually
emit.  There is one API level: :meth:`RplIterator.next_entries`,
:meth:`PostingIterator.codes` and :meth:`ExtentIterator.walk` hand
decoded runs to the strategies, and the cost model is charged per block
opened, never per entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import neg
from typing import Iterator, NamedTuple, Sequence

from ..corpus.document import M_POS
from ..index.catalog import IndexCatalog, IndexSegment
from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..index.rpl import RplEntry
from ..storage.blocks import BlockOpenLog, BlockSequence
from ..storage.cost import CostModel

__all__ = ["ElementSpan", "DUMMY_ELEMENT", "ExtentIterator", "PostingIterator",
           "RplIterator", "M_POS_CODE", "POSITION_BITS", "bisect_steps",
           "encode_position", "scan_extent"]

Position = tuple[int, int]  # (docid, offset)

#: ``_entry(RplEntry, row)`` types a decoded 5-tuple as an entry without
#: a Python-level constructor frame — the per-row cost of sorted access;
#: ``_entry(ElementSpan, row)`` likewise for ERA's emitted elements.
_entry = tuple.__new__


class ElementSpan(NamedTuple):
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


#: ERA's position code: ``(docid, offset)`` as ``docid << POSITION_BITS
#: | offset``.  Both are at most 2**40 (``M_POS``), so the code orders
#: as the tuple does and ``offset + 1`` never carries into the docid.
POSITION_BITS = 41


def encode_position(position: Position) -> int:
    return position[0] << POSITION_BITS | position[1]


#: ``M_POS`` as a position code: past every real position and element
#: end, and where the dummy element starts and ends.
M_POS_CODE = encode_position(M_POS)

#: ``(n << 32 | answer) -> steps`` of the bisections charged so far.
_STEPS: dict[int, int] = {}
#: ``n -> [steps for answer 0..n]``: the in-block bisections' table.
_STEP_TABLES: dict[int, list[int]] = {}


def bisect_steps(n: int, answer: int) -> int:
    """How many halvings a ``bisect_left`` over *n* items makes to
    answer *answer* (``0 <= answer <= n``): the comparisons a walked
    bisection is charged, known without walking it, since the path
    depends on nothing but the range and the answer."""
    if not answer:
        return n.bit_length()  # every halving goes left, onto the head
    memo = n << 32 | answer
    steps = _STEPS.get(memo)
    if steps is None:
        lo, hi, steps = 0, n, 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if mid < answer:
                lo = mid + 1
            else:
                hi = mid
        _STEPS[memo] = steps
    return steps


def _step_table(n: int) -> list[int]:
    table = _STEP_TABLES.get(n)
    if table is None:
        table = _STEP_TABLES[n] = [bisect_steps(n, answer)
                                   for answer in range(n + 1)]
    return table


class ExtentIterator:
    """The extent of one sid, walked against a sweep of positions.

    :meth:`walk` performs the ERA primitives of paper §3.2 —
    ``firstElement`` and ``nextElementAfter`` — for one sweep, and the
    sweep's tests of each position against the extent's current element
    with them.  A probe bisects the resident skip directory from the
    block the walk stands in, then one block's key column, so blocks
    ending before the probe are never decoded; both bisections run in C
    and are charged their step counts (:func:`bisect_steps`).  Blocks
    are read through a :class:`~repro.storage.blocks.BlockOpenLog`,
    which charges each open when it replays, under the sweep-order key
    of the position the probe follows.
    """

    __slots__ = ("sid", "_seq", "_model", "_opens", "_slot", "_docid")

    def __init__(self, elements: BlockedElements, sid: int,
                 opens: BlockOpenLog, docid: int | None = None) -> None:
        self.sid = sid
        self._seq = elements.sequence(sid)
        self._model = elements.cost_model.resolve()
        self._opens = opens
        self._docid = docid
        self._slot = (opens.register(self._seq)
                      if self._seq is not None and self._seq.block_count
                      else -1)

    def walk(self, codes: list[int],
             shift: int) -> list[tuple[int, int, int, ElementSpan]]:
        """The extent against the sweep of *codes*: sorted position
        codes (:func:`encode_position`) shifted left by *shift* bits,
        whose last is ``M_POS``'s.

        The sweep reads the first element before it starts.  An element
        read at sweep index ``t0`` counts every code from the first past
        its start to the first at its end, and is passed at the first
        code past its end — the sweep emits it there when it counted
        anything, and probes ``nextElementAfter`` that position, whose
        element is read at the same index.  Returns ``(passed, active,
        ending, element)`` per element that counted anything: it
        counted the codes in ``[active, ending)`` and was passed at
        index *passed*.  Seeks, comparisons and leapt blocks are
        charged on return.  The probes only move forward, so each
        directory search starts at the block the walk stands in.  An
        iterator restricted to one *docid* starts at the first block
        holding that document's elements or later ones: every element
        before it ends ahead of the document's positions.
        """
        visits: list[tuple[int, int, int, ElementSpan]] = []
        model = self._model
        seq = self._seq
        if self._slot < 0:
            model.seek()  # firstElement finds the extent empty
            return visits
        opens, slot, sid = self._opens, self._slot, self.sid
        last_keys = [docid << POSITION_BITS | endpos
                     for docid, endpos in (header.last_key
                                           for header in seq.headers)]
        blocks = len(last_keys)
        block = (0 if self._docid is None
                 else bisect_left(last_keys, self._docid << POSITION_BITS))
        if block == blocks:
            model.seek()  # the extent ends before the document
            return visits
        columns = opens.columns(slot, block, 0)
        docids, ends = columns.keys
        lengths = columns.payloads[0]
        keys = [docid << POSITION_BITS | endpos
                for docid, endpos in zip(docids, ends)]
        steps = _step_table(len(keys))
        row = t0 = 0
        seeks, compares, directory, leapt = 1, 0, 0, 0
        held: list[int] = []
        held_at: list[int] = []
        while True:
            end = keys[row]
            active = bisect_left(codes, (end - lengths[row] + 1) << shift, t0)
            ending = bisect_left(codes, end << shift, active)
            passed = bisect_left(codes, (end + 1) << shift, ending)
            if ending > active:
                visits.append((passed, active, ending, _entry(ElementSpan, (
                    sid, docids[row], ends[row], lengths[row]))))
            # The last code is m-pos, past every element end: *passed*
            # is a real sweep index, and its code is the probe.
            code = codes[passed]
            key = (code >> shift) + 1
            seeks += 1
            index = bisect_left(last_keys, key, block)
            if index == block:
                directory += (blocks - block).bit_length()
                held.append(block)
                held_at.append(code + 1)
            else:
                directory += bisect_steps(blocks - block, index - block)
                leapt += index - block
                if index == blocks:
                    break  # the dummy element: the extent is exhausted
                block = index
                columns = opens.columns(slot, block, code + 1)
                docids, ends = columns.keys
                lengths = columns.payloads[0]
                keys = [docid << POSITION_BITS | endpos
                        for docid, endpos in zip(docids, ends)]
                steps = _step_table(len(keys))
            row = bisect_left(keys, key)
            compares += steps[row]
            t0 = passed
        opens.reopen(slot, held, held_at)
        model.seek(seeks)
        if compares:
            model.compare(compares)
        directory_model = seq.cost_model
        directory_model.compare(directory)
        if leapt:
            directory_model.block_skip(leapt)
        return visits


def scan_extent(elements: BlockedElements, sid: int) -> Iterator[ElementSpan]:
    """All elements of the extent of *sid*, in order."""
    sequence = elements.sequence(sid)
    if sequence is None:
        return
    # Block-by-block through the charged read path: a full scan
    # must cost exactly what decoding every block costs — the
    # uncharged entries() bulk decode is for offline maintenance.
    for index in range(sequence.block_count):
        columns = sequence.read_block_columns(index)
        docids, endpositions = columns.keys
        lengths = columns.payloads[0]
        for row in range(columns.count):
            yield ElementSpan(sid=sid, docid=docids[row],
                              endpos=endpositions[row], length=lengths[row])


class PostingIterator:
    """The positions of one term, read as ERA's sweep reads them.

    Whole fragments are decoded as single compressed blocks, through a
    :class:`~repro.storage.blocks.BlockOpenLog` — charged per fragment
    opened when the log replays, never per position.  The sweep opens a
    term's first fragment before it starts and each later one right
    after it passes the last position of the one before, so that is the
    key each open is recorded at.  The last stored fragment ends with
    the ``m-pos`` sentinel.  Restricted to one *docid*, it reads only
    the fragments whose key range covers that document.
    """

    def __init__(self, postings: BlockedPostings, term: str,
                 opens: BlockOpenLog, docid: int | None = None) -> None:
        self.term = term
        self._seq = postings.sequence(term)
        self._opens = opens
        self._docid = docid
        self._slot = (-1 if self._seq is None or not self._seq.block_count
                      else opens.register(self._seq))
        postings.cost_model.seek()

    def codes(self, shift: int = 0, tag: int = 0) -> list[int]:
        """Every stored position, the sentinel included, as
        ``encode_position(position) << shift | tag`` — empty for a term
        absent from the corpus.  A code plus one is the sweep-order key
        of what the sweep does right after passing that position.
        Restricted to a docid: that document's positions, then the
        sentinel."""
        codes: list[int] = []
        if self._slot < 0:
            return codes
        if self._docid is not None:
            return self._document_codes(shift, tag)
        at = 0
        for index in range(self._seq.block_count):
            docids, offsets = self._opens.columns(self._slot, index, at).keys
            codes += [(docid << POSITION_BITS | offset) << shift | tag
                      for docid, offset in zip(docids, offsets)]
            at = codes[-1] + 1
        return codes

    def _document_codes(self, shift: int, tag: int) -> list[int]:
        docid = self._docid
        headers = self._seq.headers
        codes: list[int] = []
        index = bisect_left(headers, (docid, 0),
                            key=lambda header: header.last_key)
        while index < len(headers) and headers[index].first_key[0] <= docid:
            docids, offsets = self._opens.columns(self._slot, index, 0).keys
            lo = bisect_left(docids, docid)
            hi = bisect_right(docids, docid, lo)
            codes += [(docid << POSITION_BITS | offset) << shift | tag
                      for offset in offsets[lo:hi]]
            index += 1
        codes.append(M_POS_CODE << shift | tag)
        return codes


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
