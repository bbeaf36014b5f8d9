"""Follower catch-up: detach, fall behind, re-attach, replay, converge.

A detached follower (restart / net-split simulation) receives nothing
while the leader keeps ingesting and compacting; the log retains every
record past the laggard's offset.  On re-attach the tail replays in
order and the follower is byte-identical again.  A log truncated past a
follower's offset is unrecoverable by replay — that is
``ReplicaDivergenceError``, the full-resync signal.
"""

import pytest

from repro.errors import ReplicaDivergenceError, ReplicaError
from repro.replica import DeltaLog, SegmentDropRecord

from tests.replica.conftest import (QUERY, assert_byte_identical,
                                    build_group, new_document)

INGESTS = (
    "<a><sec>xml retrieval advances</sec></a>",
    "<a><sec>retrieval of xml fragments</sec></a>",
    "<a><sec>xml storage and retrieval</sec></a>",
)


def warmed_group(num_replicas=2):
    group = build_group(num_replicas)
    engine = group.leader.engine
    translated = engine.translate(QUERY)
    group.warm_segments(list(engine.missing_segments(translated,
                                                     ("rpl", "erpl"))))
    return group


class TestCatchUp:
    def test_detached_follower_lags_then_replays(self):
        group = warmed_group()
        group.detach(1)
        for text in INGESTS:
            group.add_document(new_document(group, text))
        follower = group.replicas[1]
        lag = group.log.head - follower.applied_offset
        assert lag == len(INGESTS)
        snapshot = group.snapshot()
        assert snapshot["replicas"][1]["lag"] == len(INGESTS)

        replayed = group.attach(1)
        assert replayed == len(INGESTS)
        assert follower.applied_offset == group.log.head
        assert_byte_identical(group)
        assert group.counters()["catchup_records"] == len(INGESTS)

    def test_detached_follower_misses_nothing_after_compaction(self):
        group = warmed_group()
        group.detach(1)
        for text in INGESTS:
            group.add_document(new_document(group, text))
        folded = group.compact_segments(force=True)
        assert folded > 0
        # The log tail now mixes document records and snapshot installs.
        replayed = group.attach(1)
        assert replayed == len(INGESTS) + folded
        assert_byte_identical(group)
        assert group.leader.engine.catalog.delta_snapshot()["delta_runs"] == 0

    def test_attached_followers_keep_the_log_short(self):
        group = warmed_group()
        for text in INGESTS:
            group.add_document(new_document(group, text))
        # Everyone applied everything: the log retains nothing.
        assert group.log.snapshot()["retained"] == 0

    def test_reads_resume_on_the_caught_up_follower(self):
        group = warmed_group()
        group.detach(1)
        group.add_document(new_document(group, INGESTS[0]))
        group.attach(1)
        follower = group.replicas[1]
        want = group.leader.engine.evaluate(QUERY, k=5, method="ta",
                                            mode="flat")
        got = follower.engine.evaluate(QUERY, k=5, method="ta", mode="flat")
        assert [(h.element_key(), round(h.score, 9)) for h in got.hits] == \
            [(h.element_key(), round(h.score, 9)) for h in want.hits]

    def test_detaching_the_leader_is_refused(self):
        group = warmed_group()
        with pytest.raises(ReplicaError):
            group.detach(0)

    def test_attach_on_the_leader_is_a_noop(self):
        group = warmed_group()
        assert group.attach(0) == 0


class TestDeltaLog:
    def record(self, n):
        return SegmentDropRecord(segment_id=n)

    def test_offsets_are_one_based_append_counts(self):
        log = DeltaLog()
        assert log.append(self.record(1)) == 1
        assert log.append(self.record(2)) == 2
        assert log.snapshot() == {"head": 2, "base": 0, "retained": 2}

    def test_records_since_returns_the_tail_with_offsets(self):
        log = DeltaLog()
        for n in range(1, 4):
            log.append(self.record(n))
        tail = log.records_since(1)
        assert [offset for offset, _record in tail] == [2, 3]
        assert [record.segment_id for _offset, record in tail] == [2, 3]

    def test_truncate_reclaims_applied_records(self):
        log = DeltaLog()
        for n in range(1, 5):
            log.append(self.record(n))
        assert log.truncate_to(2) == 2
        assert log.snapshot() == {"head": 4, "base": 2, "retained": 2}
        # Still serviceable past the truncation point.
        assert [offset for offset, _ in log.records_since(2)] == [3, 4]

    def test_truncated_tail_is_a_divergence(self):
        log = DeltaLog()
        for n in range(1, 5):
            log.append(self.record(n))
        log.truncate_to(3)
        with pytest.raises(ReplicaDivergenceError):
            log.records_since(1)

    def test_clear_resets_to_a_fresh_origin(self):
        log = DeltaLog()
        log.append(self.record(1))
        log.truncate_to(1)
        log.clear()
        assert log.snapshot() == {"head": 0, "base": 0, "retained": 0}
        assert log.records_since(0) == []
