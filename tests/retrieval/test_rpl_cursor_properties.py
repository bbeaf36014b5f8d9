"""The one RPL cursor: a base segment is the one-run case of the merge.

One score-descending entry list is stored twice — compacted into a
single run, and split over up to four runs (base + LSM deltas) — and
read under the same sid filter with the same sequence of batch limits.
The two cursors must be indistinguishable entry by entry, the bound
must stay a sound ceiling that never rises while the list is read, and
block-max pruning must never drop an entry at or above its threshold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IndexCatalog, RplEntry
from repro.retrieval import RplIterator
from repro.storage import free_cost_model

SIDS = range(5)


@st.composite
def split_lists(draw):
    """(entries, run index per entry, sid filter, limits, block size)."""
    count = draw(st.integers(0, 40))
    # Few distinct scores, so ties (ordered by the element key) are common.
    scores = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0, 9.0]),
                           min_size=count, max_size=count))
    entries = [RplEntry(score, draw(st.sampled_from(SIDS)), index // 3,
                        (index % 3 + 1) * 10, 1 + index % 7)
               for index, score in enumerate(scores)]
    entries.sort(key=lambda e: (-e.score, e.docid, e.endpos))
    runs = draw(st.integers(1, 4))
    assignment = draw(st.lists(st.integers(0, runs - 1),
                               min_size=count, max_size=count))
    sids = draw(st.sets(st.sampled_from(SIDS)))
    limits = draw(st.lists(st.integers(0, 9), min_size=1, max_size=12))
    return entries, assignment, sids, limits, draw(st.integers(1, 5))


def _cursor(entries, assignment, sids, block_size):
    catalog = IndexCatalog(cost_model=free_cost_model(),
                           block_size=block_size)
    runs = [[entry for entry, run in zip(entries, assignment) if run == index]
            for index in range(max(assignment, default=0) + 1)]
    segment = catalog.add_rpl_segment("xml", runs[0])
    for delta in runs[1:]:
        segment = catalog.append_delta(segment.segment_id, delta)
    return RplIterator(catalog, segment, sids)


@settings(max_examples=150, deadline=None)
@given(split_lists())
def test_split_runs_read_like_the_compacted_run(case):
    entries, assignment, sids, limits, block_size = case
    compacted = _cursor(entries, [0] * len(entries), sids, block_size)
    split = _cursor(entries, assignment, sids, block_size)
    bound = float("inf")
    for limit in limits:
        got = split.next_entries(limit)
        assert got == compacted.next_entries(limit)
        assert len(got) <= limit
        assert (split.depth, split.skipped) == \
            (compacted.depth, compacted.skipped)
        assert split.exhausted == compacted.exhausted
        # Both read the list in its one global order, so what is left
        # is its tail — which the bound must dominate, without rising
        # once reading has begun.  (Before it, the bound is the best
        # block-max; a delta run that is opened but not yet read from
        # then reports +inf until its first entry is taken — loose but
        # sound, and what the recorded charge-parity numbers contain.)
        if split.depth:
            assert split.upper_bound <= bound
            bound = split.upper_bound
        unreturned = [entry.score for entry in entries[split.depth:]]
        assert all(score <= split.upper_bound for score in unreturned)
        assert all(score <= compacted.upper_bound for score in unreturned)
    if split.depth == len(entries):
        assert split.upper_bound == compacted.upper_bound == 0.0


@settings(max_examples=150, deadline=None)
@given(split_lists(), st.sampled_from([0.0, 0.75, 1.0, 1.75, 4.0, 10.0]))
def test_pruning_keeps_every_entry_at_or_above_the_threshold(case, threshold):
    entries, assignment, sids, limits, block_size = case
    cursor = _cursor(entries, assignment, sids, block_size)
    seen = cursor.next_entries(limits[0])
    blocks = cursor.skip_until_score_below(threshold)
    assert blocks >= 0
    seen += cursor.next_entries(len(entries) + 1)
    assert cursor.exhausted and cursor.upper_bound == 0.0
    keys = {entry.element_key() for entry in seen}
    for entry in entries:
        if entry.sid in sids and entry.score >= threshold:
            assert entry.element_key() in keys
    scores = [entry.score for entry in seen]
    assert scores == sorted(scores, reverse=True)
