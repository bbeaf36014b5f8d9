"""Document order is performed differently, never charged differently.

WAND reads one :class:`TermFrontier`, ``ErplIterator.shallow`` reads
per-stream block covers, and an in-block leap that is already on its
target charges its bisection without walking it.  The loops they
replaced are kept here **verbatim** (field and tuple-shape renames
aside) as the oracle, the way ``ReferenceHeap`` keeps the old top-k
heap: ``WandSession._round`` / ``_evaluate`` / ``_next_target``,
``ErplIterator.shallow``, ``_ErplSidStream.probe`` and the in-block
bisection of ``leap_to``.  Both sides run over the same catalog and
must agree on the hits, every counter and both cost reprs.  (Merge's
oracle is ``test_merge_reference.py``.)

``REPRO_DOCORDER_EXAMPLES`` raises the example count (CI uses 300).
"""

import os
import random
from contextlib import contextmanager
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus, XMLParser)
from repro.corpus.document import M_POS
from repro.index import IndexCatalog, RplEntry
from repro.retrieval import (ErplIterator, TrexEngine, WandSession,
                             merge_retrieve)
from repro.retrieval.iterators import TermFrontier, _ErplSidStream
from repro.retrieval.result import EvaluationStats
from repro.storage import CostModel
from repro.summary import IncomingSummary

EXAMPLES = int(os.environ.get("REPRO_DOCORDER_EXAMPLES", "25"))
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}


# ----------------------------------------------------------------------
# The parent commit's loops
# ----------------------------------------------------------------------
def reference_probe(stream, bound):
    """``_ErplSidStream.probe`` before the block cover."""
    if stream.done:
        return 0.0, None
    probe_key = (stream.sid, bound[0], bound[1])
    headers = stream._seq.headers
    if stream.index < stream.count:
        header = headers[stream._block - 1]
        if header.last_key >= probe_key:
            return header.max_score, _sid_clip(stream, header.last_key)
    found = (0.0, None)
    start = index = stream._block
    count = stream._seq.block_count
    while index < count:
        header = headers[index]
        index += 1
        if header.first_key[0] > stream.sid:
            break
        if header.last_key >= probe_key:
            found = header.max_score, _sid_clip(stream, header.last_key)
            break
    if index > start:
        stream._model.compare(index - start)  # one per header examined
    return found


def _sid_clip(stream, last_key):
    if last_key[0] == stream.sid:
        return (last_key[1], last_key[2])
    return None  # block runs past the sid: covers its whole tail


def reference_shallow(cursor, key):
    """``ErplIterator.shallow`` as one ``probe`` per live stream."""
    bound = 0.0
    boundary = None
    for head_key, _stream_id, entry, stream in cursor._heap:
        stream_bound, stream_boundary = reference_probe(stream, key)
        if entry[0] > stream_bound and head_key >= key:
            stream_bound = entry[0]  # the head's own (exact) score
        if stream_bound > bound:
            bound = stream_bound
        if stream_boundary is not None and (boundary is None
                                            or stream_boundary < boundary):
            boundary = stream_boundary
    return bound, boundary


def reference_bisect(stream, lo, bound):
    """The in-block bisection of ``leap_to`` / ``_position_at``: always
    walked, one full-key tuple comparison per step."""
    probe_key = (stream.sid, bound[0], bound[1])
    sid_col, docid_col = stream.sids, stream.docids
    end_col = stream.ends
    hi = stream.count
    steps = 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if (sid_col[mid], docid_col[mid], end_col[mid]) < probe_key:
            lo = mid + 1
        else:
            hi = mid
    if steps:
        stream._model.compare(steps)
    return lo


class ReferenceWandSession(WandSession):
    """``WandSession`` with the parent's pivot round: the live list
    rebuilt and re-sorted every round, ``_evaluate`` sweeping every
    term, ``shallow`` probing every stream."""

    def _round(self):
        live = [(term, iterator)
                for term, iterator in self.iterators.items()
                if not iterator.exhausted]
        if not live:
            self.finished = True
            return False
        live.sort(key=lambda pair: pair[1].current_position)
        theta = self._theta()
        accumulated = 0.0
        pivot = -1
        for index, (term, iterator) in enumerate(live):
            accumulated += self.static_bounds[term]
            if accumulated >= theta:  # non-strict: ties must be evaluated
                pivot = index
                break
        compares = len(live) + (pivot + 1 if pivot >= 0 else len(live))
        if pivot < 0:
            self.cost_model.compare(compares)
            self.early_stop = True
            self._finish()
            return False
        pivot_key = live[pivot][1].current_position
        if live[0][1].current_position == pivot_key:
            aligned = self._evaluate(pivot_key)
            self.cost_model.compare(compares + aligned)
            self.cost_model.score_combine(aligned)
            return True
        prefix = live[:pivot + 1]
        self.cost_model.compare(compares + len(prefix))
        shallow = 0.0
        boundary = None
        for term, iterator in prefix:
            term_bound, term_boundary = reference_shallow(iterator, pivot_key)
            shallow += self.weights[term] * term_bound
            if term_boundary is not None and (boundary is None
                                              or term_boundary < boundary):
                boundary = term_boundary
        if shallow < theta:
            target = self._next_target(live, pivot, pivot_key, boundary)
            for term, iterator in prefix:
                self.blocks_skipped_shallow += iterator.skip_to(target)
            self.pivot_advances += 1
            return True
        for term, iterator in live[:pivot]:
            iterator.skip_to(pivot_key)
        self.pivot_advances += 1
        return True

    @staticmethod
    def _next_target(live, pivot, pivot_key, boundary):
        target = (pivot_key[0], pivot_key[1] + 1)
        if boundary is None:
            target = M_POS  # the probed blocks cover every remaining key
        else:
            after = (boundary[0], boundary[1] + 1)
            if after > target:
                target = after
        if pivot + 1 < len(live):
            suffix_head = live[pivot + 1][1].current_position
            if suffix_head < target:
                target = suffix_head
        return target

    def _evaluate(self, key):
        score = 0.0
        sid = 0
        length = 0
        aligned = 0
        for term, iterator in self.iterators.items():
            if iterator.exhausted or iterator.current_position != key:
                continue
            aligned += 1
            entry = iterator.consume_head()
            score += self.weights[term] * entry.score
            sid = entry.sid
            length = entry.length
        self.docs_evaluated += 1
        self.candidates[key] = (sid, length)
        self.heap.offer(score, key)
        return aligned


@contextmanager
def reference_cursor():
    """Run the block with the always-walked in-block bisection."""
    with mock.patch.object(_ErplSidStream, "_bisect", reference_bisect):
        yield


# ----------------------------------------------------------------------
# Engine-level differential
# ----------------------------------------------------------------------
def build_engine(kind, corpus_seed, num_docs, order_seed, block_size, nexi,
                 delta_docs):
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
    # Ingested after: an LSM delta run on every list whose term it holds.
    for source in order[num_docs:]:
        engine.add_document(corpus.document_xml(source))
    engine.auto_materialize = False
    return engine


def fresh_meters(engine):
    """The engine's cost model, zeroed: a cost is a difference of float
    meters, whose last digit depends on where the meters stood."""
    model = engine.cost_model.resolve()
    model.reset()
    return model


def observe(model, snapshot, hits, stats):
    """Everything the contract pins: exact floats, no rounding."""
    spent = model.since(snapshot)
    return {
        "hits": [(hit.score, hit.docid, hit.end_pos, hit.sid, hit.length)
                 for hit in hits],
        "stats": {name: value for name, value in vars(stats).items()
                  if isinstance(value, (int, bool, str, dict))},
        "counters": asdict(spent.counters),
        "meters": (repr(spent.total_cost), repr(spent.ideal_cost)),
    }


def run_wand(session_class, engine, clause, k, batch_size, floors):
    """One WAND run, ``external_floor`` raised between ``step()``s along
    *floors* the way the sharded coordinator feeds the global floor."""
    model = fresh_meters(engine)
    snapshot = model.snapshot()
    session = session_class(
        engine.catalog, engine.segments_for(clause, "erpl"), clause.sids, k,
        model, dict(clause.term_weights),
        bound_segments=engine.bound_segments_for(clause),
        batch_size=batch_size)
    schedule = iter(floors)
    while session.step():
        floor = next(schedule, None)
        if floor is not None and floor > session.external_floor:
            session.external_floor = floor
    stats = EvaluationStats(method="wand")
    session.stats_into(stats)
    return observe(model, snapshot, session.finalize(), stats)


def check_case(kind, corpus_seed, num_docs, order_seed, qid, k, block_size,
               delta_docs, batch_size, floors):
    nexi = PAPER_QUERIES[qid].nexi
    engine = build_engine(kind, corpus_seed, num_docs, order_seed, block_size,
                          nexi, delta_docs)
    clause = engine.translate(nexi).flat_clause()
    # warm: every block of the query's ranges resident
    merge_retrieve(engine.catalog, engine.segments_for(clause, "erpl"),
                   clause.sids, engine.cost_model.resolve())
    got = run_wand(WandSession, engine, clause, k, batch_size, floors)
    with reference_cursor():
        want = run_wand(ReferenceWandSession, engine, clause, k, batch_size,
                        floors)
    assert got == want, "wand"
    return engine.catalog.delta_snapshot()["delta_runs"]


CASES = dict(
    corpus_seed=st.integers(0, 10**6), num_docs=st.integers(6, 14),
    order_seed=st.integers(0, 10**6), k=st.integers(1, 40),
    block_size=st.integers(2, 8), delta_docs=st.integers(0, 2),
    batch_size=st.integers(1, 8),
    floors=st.lists(st.floats(0.0, 4.0), max_size=8))


@given(qid=st.sampled_from(sorted(PAPER_QUERIES)), **CASES)
@settings(max_examples=EXAMPLES, deadline=None)
def test_wand_equals_the_reference_loop(qid, **case):
    check_case(PAPER_QUERIES[qid].collection, qid=qid, **case)


#: Fixed cells for the seeded mutations: every multi-term IEEE query,
#: small blocks, with and without delta runs, a floor that bites.
MUTATION_CELLS = [
    dict(kind="ieee", corpus_seed=42, num_docs=14, order_seed=order_seed,
         qid=qid, k=k, block_size=block_size, delta_docs=delta_docs,
         batch_size=4, floors=[0.0, 0.5, 1.0])
    for qid in (202, 203, 260, 270)
    for order_seed, k, block_size, delta_docs in ((1, 3, 2, 0), (7, 10, 4, 2))]


def _sweep():
    return sum(check_case(**cell) for cell in MUTATION_CELLS)


def test_the_mutation_cells_pass_unmutated():
    assert _sweep() > 0  # and some of them read through delta runs


def test_fails_when_frontier_ties_are_broken_by_position_only(monkeypatch):
    """Mutation: a re-placed cursor goes behind *every* cursor on the
    same position, whatever its term index."""
    from bisect import insort

    def repair(self, moved):
        live = self.live
        front = live[:moved]
        del live[:moved]
        for _position, index, cursor in front:
            if cursor._heap:
                insort(live, (cursor._heap[0][0], index, cursor),
                       key=lambda item: item[0])

    monkeypatch.setattr(TermFrontier, "repair", repair)
    with pytest.raises(AssertionError):
        _sweep()


def test_fails_when_a_cover_outlives_its_block(monkeypatch):
    """Mutation: the cover is not withdrawn with its block's last row,
    so ``shallow`` reuses it after the stream moved on to the next
    block — free, where the header walk is charged, and with the old
    block's maximum and boundary."""
    next_row = _ErplSidStream.next_row

    def stale(self):
        cover = self.cover_through
        entry = next_row(self)
        if not self.done and self.index == self.count:
            self.cover_through = cover
        return entry

    monkeypatch.setattr(_ErplSidStream, "next_row", stale)
    with pytest.raises(AssertionError):
        _sweep()


# ----------------------------------------------------------------------
# Cursor-level properties
# ----------------------------------------------------------------------
KEYS = st.tuples(st.integers(0, 13), st.integers(0, 4).map(lambda n: 10 * n))
OPS = st.lists(st.one_of(
    st.tuples(st.just("consume"), KEYS),
    st.tuples(st.just("take"), KEYS),
    st.tuples(st.just("skip"), KEYS),
), max_size=25)


@st.composite
def catalogs(draw, terms=1):
    """A catalog of *terms* ERPL segments over three sids: every element
    key under one sid, rows of docids 10+ appended as a delta run."""
    block_size = draw(st.integers(2, 8))
    catalog = IndexCatalog(cost_model=CostModel(), block_size=block_size)
    segments = []
    for term in range(terms):
        rows = draw(st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 4), st.integers(1, 3),
                      st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0])),
            min_size=1, max_size=40, unique_by=lambda row: row[:2]))
        entries = [RplEntry(score, (docid + end) % 3 + 1, docid, 10 * end,
                            length)
                   for docid, end, length, score in rows]
        base = [entry for entry in entries if entry.docid < 10]
        segment = catalog.add_erpl_segment(f"t{term}", base)
        delta = [entry for entry in entries if entry.docid >= 10]
        if delta:
            segment = catalog.append_delta(segment.segment_id, delta)
        segments.append(segment)
    return catalog, segments, draw(st.sets(st.integers(1, 3), min_size=1))


def _apply(cursor, op, key):
    if cursor.exhausted:
        return
    if op == "consume":
        cursor.consume_head()
    elif op == "take":  # every entry below *key*, one by one
        while not cursor.exhausted and cursor.current_position < key:
            cursor.consume_head()
    else:
        cursor.skip_to(key)


def _charged(model, call):
    before = model.counters.comparisons
    value = call()
    return value, model.counters.comparisons - before


@given(built=catalogs(), ops=OPS, tail=st.booleans())
@settings(max_examples=4 * EXAMPLES, deadline=None)
def test_shallow_equals_the_probe_loop_in_value_and_charges(built, ops, tail):
    catalog, (segment,), sids = built
    model = catalog.cost_model
    cursor = ErplIterator(catalog, segment, sids)
    for op, key in [*ops, ("tail", M_POS)]:
        if op == "tail":
            if not tail:
                break
            cursor.skip_tail()
        else:
            _apply(cursor, op, key)
        for probe_key in (key, cursor.current_position, (0, 0)):
            assert (_charged(model, lambda: cursor.shallow(probe_key))
                    == _charged(model,
                                lambda: reference_shallow(cursor, probe_key)))


@given(built=catalogs(), ops=OPS)
@settings(max_examples=4 * EXAMPLES, deadline=None)
def test_leaps_charge_the_walked_bisection(built, ops):
    """Two cursors over one segment, one with the always-walked
    bisection: same rows, same skipped counts, same comparisons."""
    catalog, (segment,), sids = built
    model = catalog.cost_model
    cursor = ErplIterator(catalog, segment, sids)
    walked = ErplIterator(catalog, segment, sids)
    for op, key in ops:
        got = _charged(model, lambda: _apply(cursor, op, key))
        with reference_cursor():
            want = _charged(model, lambda: _apply(walked, op, key))
        assert got == want
        assert (cursor.current, cursor.depth, cursor.skipped) == \
            (walked.current, walked.depth, walked.skipped)


@given(built=catalogs(terms=3), data=st.data())
@settings(max_examples=4 * EXAMPLES, deadline=None)
def test_frontier_is_the_stable_sort_of_the_live_cursors(built, data):
    catalog, segments, sids = built
    cursors = [ErplIterator(catalog, segment, sids) for segment in segments]
    frontier = TermFrontier(cursors)

    def expected():
        return sorted(((cursor.current_position, index, cursor)
                       for index, cursor in enumerate(cursors)
                       if not cursor.exhausted), key=lambda item: item[:2])

    assert frontier.live == expected()
    for _ in range(data.draw(st.integers(0, 30))):
        if not frontier.live:
            break
        moved = data.draw(st.integers(1, len(frontier.live)))
        op = data.draw(st.sampled_from(("consume", "take", "skip")))
        key = data.draw(KEYS)
        for _position, _index, cursor in frontier.live[:moved]:
            _apply(cursor, op, key)
        frontier.repair(moved)
        assert frontier.live == expected()
