"""ERA is walked differently, never charged differently.

:func:`repro.retrieval.era.era_raw` merges the postings once, walks each
extent by bisection and replays the sweep's block opens through the
page cache at the end.  The sweep it replaced — Figure 2 read
literally: ``era_raw`` testing every position against every sid, with
its ``ExtentIterator`` probes and ``PostingIterator`` chunks — is kept
here **verbatim** (the ``reference_`` name aside) as the oracle, the way ``test_merge_reference.py`` keeps the old
Merge loop.  Both run over separate views of one pair of
base indexes, each with its own meter and page cache of one capacity,
twice (cold, then warm), and must agree on the output list and its
order, every ``CostCounters`` field, ``read_units``, the pool's hits,
misses and evictions, and the page-touch sequence with page ids
numbered by first touch.

``REPRO_ERA_EXAMPLES`` raises the example count (CI uses 300).
"""

import os
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          XMLParser)
from repro.corpus.document import M_POS
from repro.index import BlockedElements, BlockedPostings
from repro.retrieval import era as era_module
from repro.retrieval.iterators import DUMMY_ELEMENT, ElementSpan
from repro.retrieval.iterators import PostingIterator as WalkedPostings
from repro.storage import CostModel, PageCache
from repro.storage.blocks import BlockOpenLog
from repro.summary import IncomingSummary, TagSummary

EXAMPLES = int(os.environ.get("REPRO_ERA_EXAMPLES", "25"))
ABSENT = "zzzabsentterm"
Position = tuple[int, int]


# ----------------------------------------------------------------------
# The sweep, as it was
# ----------------------------------------------------------------------
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
        fragment = self._seq.read_block_columns(self._block).rows()
        self._block += 1
        return fragment


def reference_era_raw(elements_index: BlockedElements,
            postings_index: BlockedPostings,
            sids: list[int], terms: list[str],
            cost_model: CostModel) -> list[tuple[ElementSpan, list[int]]]:
    """The literal algorithm of Figure 2.

    Returns ``(element, tf_vector)`` pairs where ``tf_vector[j]`` is the
    number of occurrences of ``terms[j]`` strictly inside the element.
    Elements are emitted in the order their end positions are passed.
    """
    if not sids or not terms:
        return []
    results: list[tuple[ElementSpan, list[int]]] = []

    extent_iterators = [ExtentIterator(elements_index, sid) for sid in sids]
    elements = [iterator.first_element() for iterator in extent_iterators]
    # Each sid's current element as plain (start, end) position tuples,
    # refreshed only when the element advances — the sweep below tests
    # every position against every sid.
    starts = [element.start for element in elements]
    ends = [element.end for element in elements]
    counts = [[0] * len(terms) for _ in sids]

    # Posting positions are consumed fragment-at-a-time: each term keeps
    # the current decoded chunk and an inline cursor, refilled through
    # the batch access path — one PostingIterator call per fragment
    # instead of one per position; decode charges are per fragment
    # opened, exactly as before.
    posting_iterators = [PostingIterator(postings_index, term) for term in terms]
    buffers: list[list[tuple[int, int]]] = []
    cursors: list[int] = []
    positions: list[tuple[int, int]] = []
    for iterator in posting_iterators:
        chunk = iterator.next_chunk()
        if chunk is None:
            chunk = [M_POS]  # term absent: behave as an empty list
        buffers.append(chunk)
        cursors.append(0)
        positions.append(chunk[0])

    sid_range = range(len(sids))
    swept = 0
    while True:
        # x: index of the minimal current position (line 12)
        pos_x = min(positions)
        x = positions.index(pos_x)
        swept += 1

        for i in sid_range:
            if pos_x <= starts[i]:
                continue  # line 15: do nothing
            if pos_x < ends[i]:
                counts[i][x] += 1  # line 17
            elif ends[i] < pos_x:
                # lines 19-23: flush the finished element
                if any(counts[i]):
                    results.append((elements[i], counts[i]))
                    counts[i] = [0] * len(terms)
                # line 24: advance past pos_x
                element = extent_iterators[i].next_element_after(pos_x)
                elements[i] = element
                starts[i], ends[i] = element.start, element.end
                if starts[i] < pos_x < ends[i]:
                    counts[i][x] += 1  # lines 25-27

        # line 31: the repeat..until loop stops once every term reached
        # m-pos — i.e. after the iteration that *processed* pos_x == m-pos
        # (which is the minimum only when all positions are m-pos), whose
        # flush above emitted every remaining element.
        if pos_x == M_POS:
            break
        cursor = cursors[x] + 1
        while cursor >= len(buffers[x]):
            chunk = posting_iterators[x].next_chunk()
            if chunk is None:
                chunk = [M_POS]  # stored lists end with the sentinel
            buffers[x] = chunk
            cursor = 0
        cursors[x] = cursor
        positions[x] = buffers[x][cursor]

    # Per position swept: a len(terms)-way minimum (line 12) and one
    # comparison against each sid's current element (lines 14-18).
    cost_model.compare(swept * (len(terms) + len(sids)))
    return results


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
class TouchLog(PageCache):
    """A page cache that remembers every page it is asked about, once
    (``touch_blocks`` sends its misses through ``touch_block``)."""

    def __init__(self, capacity, cost_model):
        super().__init__(capacity=capacity, cost_model=cost_model)
        self.touched = []
        self._batched = False

    def touch_block(self, page_id, factor=1.0):
        if not self._batched:
            self.touched.append(page_id)
        return super().touch_block(page_id, factor=factor)

    def touch_blocks(self, page_ids, factors):
        self.touched.extend(page_ids)
        self._batched = True
        try:
            return super().touch_blocks(page_ids, factors)
        finally:
            self._batched = False


def normalized(pages):
    """Page ids numbered by first touch: two views' touches compare."""
    first = {}
    return [first.setdefault(page, len(first)) for page in pages]


def build_indexes(corpus_seed, num_docs, order_seed, summary_kind,
                  block_size, fragment_size, ingested):
    """Base indexes over a shuffled synthetic corpus; the last
    *ingested* documents are folded in afterwards, the ingest path."""
    corpus = SyntheticIEEECorpus(num_docs=num_docs + ingested,
                                 seed=corpus_seed)
    order = list(range(num_docs + ingested))
    random.Random(order_seed).shuffle(order)
    parser = XMLParser()
    documents = [parser.parse(corpus.document_xml(source), docid)
                 for docid, source in enumerate(order)]
    collection = Collection(name="ieee")
    for document in documents:
        collection.add(document)
    alias = AliasMapping.inex_ieee()
    summary = (TagSummary(collection, alias=alias) if summary_kind == "tag"
               else IncomingSummary(collection, alias=alias))
    elements = BlockedElements(cost_model=CostModel(), block_size=block_size)
    postings = BlockedPostings(cost_model=CostModel(),
                               fragment_size=fragment_size)
    base = documents[:num_docs]
    elements.rebuild(base, summary)
    postings.rebuild(base)
    for document in documents[num_docs:]:
        elements.rebuild([document], summary)
        postings.rebuild([document])
    return elements, postings


def run(era_raw, elements, postings, sids, terms, capacity, split):
    """Two passes (cold, warm) of *era_raw* over fresh views — sharing
    one buffer pool, or with a pool each when *split* (as an engine's
    base indexes have): what each returned and charged, and what the
    pools saw."""
    model = CostModel()
    caches = [TouchLog(capacity, model)]
    if split:
        caches.append(TouchLog(capacity, model))
    elements = elements.view(sids, model, caches[0])
    postings = postings.view(terms, model, caches[-1])
    passes = []
    for _ in range(2):
        snapshot = model.snapshot()
        raw = era_raw(elements, postings, list(sids), list(terms), model)
        spent = model.since(snapshot)
        passes.append({
            "raw": [(element, list(counts)) for element, counts in raw],
            "counters": asdict(spent.counters),
            "read_units": spent.read_units,
            "pools": [(cache.hits, cache.misses, cache.evictions, len(cache))
                      for cache in caches],
        })
    return passes, [normalized(cache.touched) for cache in caches]


def check_case(corpus_seed, num_docs, order_seed, summary_kind, block_size,
               fragment_size, ingested, sid_picks, term_picks, absent,
               capacity, split):
    elements, postings = build_indexes(corpus_seed, num_docs, order_seed,
                                       summary_kind, block_size,
                                       fragment_size, ingested)
    keys = elements.keys()
    sids = sorted({keys[pick % len(keys)] for pick in sid_picks})
    if absent > 1:
        sids.append(keys[-1] + 1)  # an empty extent
    vocabulary = postings.keys()
    terms = [vocabulary[pick % len(vocabulary)] for pick in term_picks]
    if absent:
        terms.insert(absent % (len(terms) + 1), ABSENT)
    got = run(era_module.era_raw, elements, postings, sids, terms, capacity,
              split)
    want = run(reference_era_raw, elements, postings, sids, terms, capacity,
               split)
    assert got == want
    return sum(len(one_pass["raw"]) for one_pass in want[0])


CASES = dict(
    corpus_seed=st.integers(0, 10**6), num_docs=st.integers(3, 8),
    order_seed=st.integers(0, 10**6),
    summary_kind=st.sampled_from(["tag", "incoming"]),
    block_size=st.integers(2, 8), fragment_size=st.integers(2, 8),
    ingested=st.integers(0, 2),
    sid_picks=st.lists(st.integers(0, 10**4), min_size=1, max_size=12),
    term_picks=st.lists(st.integers(0, 10**4), min_size=1, max_size=5),
    absent=st.integers(0, 3),
    capacity=st.sampled_from([1, 4, 16, 4096]), split=st.booleans())


@given(**CASES)
@settings(max_examples=EXAMPLES, deadline=None)
def test_era_equals_the_reference_sweep(**case):
    check_case(**case)


#: Fixed cells for the seeded mutations: both summaries, small blocks
#: and fragments, an absent term, pools that evict and one that does not.
MUTATION_CELLS = [
    dict(corpus_seed=seed, num_docs=6, order_seed=seed + 1,
         summary_kind=summary_kind, block_size=block_size,
         fragment_size=fragment_size, ingested=ingested,
         sid_picks=list(range(0, 40, 3)), term_picks=[5, 17, 40],
         absent=1, capacity=capacity, split=split)
    for seed, summary_kind, block_size, fragment_size, ingested, capacity,
    split in (
        (11, "tag", 2, 3, 0, 4, False), (29, "incoming", 5, 2, 1, 16, True),
        (47, "tag", 3, 4, 2, 4096, False), (83, "incoming", 2, 2, 0, 1, True))]


def _sweep():
    return sum(check_case(**cell) for cell in MUTATION_CELLS)


def test_the_mutation_cells_pass_unmutated():
    assert _sweep() > 0


def test_fails_when_a_probe_skips_its_replayed_open(monkeypatch):
    """Mutation: a probe that lands in the block its extent already
    holds is charged its seek and comparisons but never logs the open,
    so the pool is not touched for it."""
    monkeypatch.setattr(BlockOpenLog, "reopen",
                        lambda self, slot, indexes, keys: None)
    with pytest.raises(AssertionError):
        _sweep()


def test_fails_when_fragment_opens_replay_before_the_sids(monkeypatch):
    """Mutation: a fragment opens at the key *of* the position that ends
    its predecessor, ahead of the probes that position makes."""
    def early(self, shift=0, tag=0):
        codes = []
        if self._slot < 0:
            return codes
        at = 0
        for index in range(self._seq.block_count):
            docids, offsets = self._opens.columns(self._slot, index, at).keys
            codes += [(docid << 41 | offset) << shift | tag
                      for docid, offset in zip(docids, offsets)]
            at = codes[-1]  # the mutation: not *past* the position
        return codes

    monkeypatch.setattr(WalkedPostings, "codes", early)
    with pytest.raises(AssertionError):
        _sweep()
