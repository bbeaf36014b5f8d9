"""The replication log: sealed leader mutations, shipped by offset.

Every write a :class:`~repro.replica.group.ReplicaGroup` performs goes
leader-first, then is sealed into one immutable record and appended
here.  Followers apply records **in log order** and remember the offset
they have applied up to; a follower that was detached (restart, net
split simulation) replays ``records_since(applied)`` on re-attach and
is byte-identical to the leader again.  An ingest replays the document
through the follower's own ``add_document`` (the delta rows are one
deterministic ERA pass over base indexes every replica extends alike);
built and compacted segments ship as the leader's block images, which
is far cheaper than rebuilding them on every follower.

Record types mirror the leader's four catalog mutations:

* :class:`DocumentRecord` — one ingested document, re-ingested on each
  follower;
* :class:`SegmentInstallRecord` — a newly built segment (warm-up or an
  autopilot-chosen build) as its serialized block image, installed on
  followers under the leader's segment id;
* :class:`SnapshotInstallRecord` — a leader compaction, propagated as
  the compacted base image which replaces the follower's base and
  clears its delta runs;
* :class:`SegmentDropRecord` — a segment retirement.

Offsets are 1-based append counts: a replica with ``applied == head``
is caught up.  ``truncate_to`` lets the group reclaim records every
attached replica has applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .. import sanitizer
from ..corpus.document import Document
from ..errors import ReplicaDivergenceError

__all__ = ["DocumentRecord", "SegmentInstallRecord",
           "SnapshotInstallRecord", "SegmentDropRecord",
           "ReplicationRecord", "DeltaLog"]


@dataclass(frozen=True)
class DocumentRecord:
    """One leader ingest: the parsed document, which every follower
    ingests through its own ``add_document``."""

    document: Document


@dataclass(frozen=True)
class SegmentInstallRecord:
    """A built segment shipped as its serialized block image."""

    segment_id: int
    kind: str
    term: str
    scope: frozenset[int] | None
    image: bytes


@dataclass(frozen=True)
class SnapshotInstallRecord:
    """A leader compaction: the new base image for one segment.

    A follower's catalog changes only through shipped records, so it
    holds the segment under the leader's id; one that does not has
    diverged, and applying the record fails loudly."""

    segment_id: int
    image: bytes


@dataclass(frozen=True)
class SegmentDropRecord:
    """A segment retirement (advisor eviction, rebuild), addressed by
    the leader's segment id like :class:`SnapshotInstallRecord`."""

    segment_id: int


ReplicationRecord = Union[DocumentRecord, SegmentInstallRecord,
                          SnapshotInstallRecord, SegmentDropRecord]


class DeltaLog:
    """Append-only, truncatable record log with 1-based offsets."""

    __guarded_by__ = {"_lock": ("head", "_records", "_base")}

    def __init__(self, name: str = "replica") -> None:
        self._lock = sanitizer.make_lock(f"{name}-deltalog")
        self._records: list[ReplicationRecord] = []
        #: Global offset of the first retained record (0 until the
        #: first truncation).
        self._base = 0
        #: Total records ever appended (== the offset of the newest).
        self.head = 0

    def append(self, record: ReplicationRecord) -> int:
        """Seal *record* and return its offset."""
        with self._lock:
            self._records.append(record)
            self.head += 1
            return self.head

    def records_since(self, applied: int
                      ) -> list[tuple[int, ReplicationRecord]]:
        """``(offset, record)`` for every record past *applied*.

        Raises :class:`ReplicaDivergenceError` when the requested tail
        was already truncated — the follower can no longer catch up by
        replay and needs a full resync.
        """
        with self._lock:
            if applied < self._base:
                raise ReplicaDivergenceError(
                    f"replication log truncated past offset {applied} "
                    f"(oldest retained is {self._base}); follower needs "
                    f"a full resync")
            start = applied - self._base
            return [(self._base + index + 1, record)
                    for index, record in enumerate(self._records[start:],
                                                   start=start)]

    def truncate_to(self, applied: int) -> int:
        """Drop records at or below *applied*; returns how many."""
        with self._lock:
            keep_from = min(max(applied, self._base), self.head)
            dropped = keep_from - self._base
            if dropped > 0:
                del self._records[:dropped]
                self._base = keep_from
            return dropped

    def clear(self) -> None:
        """Forget everything (post-rebuild/reload resync point)."""
        with self._lock:
            self._records = []
            self._base = 0
            self.head = 0

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"head": self.head, "base": self._base,
                    "retained": len(self._records)}
