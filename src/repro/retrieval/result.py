"""Result containers for query evaluation.

Every evaluation returns a :class:`ResultSet`: ranked hits plus an
:class:`EvaluationStats` record of *simulated* cost (the reproduction's
substitute for the paper's wall-clock seconds — see
:mod:`repro.storage.cost`) and per-strategy diagnostics such as how deep
into each RPL the threshold algorithm read (paper §5.2 discusses this
depth explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..scoring.combine import ScoredHit

__all__ = ["EvaluationStats", "ResultSet"]


@dataclass
class EvaluationStats:
    """Cost and diagnostics for one strategy run."""

    method: str
    #: Simulated time including heap maintenance (paper: TA / ERA / Merge).
    cost: float = 0.0
    #: Simulated time with heap maintenance suppressed (paper: ITA).
    ideal_cost: float = 0.0
    #: Rows read from each term's sorted list: term -> depth.
    list_depths: dict[str, int] = field(default_factory=dict)
    #: Total length of each term's sorted list (to detect full reads).
    list_lengths: dict[str, int] = field(default_factory=dict)
    #: Rows read but skipped because their sid was outside the query.
    rows_skipped: int = 0
    #: Candidate elements touched.
    candidates: int = 0
    #: True when TA terminated via its stopping condition before exhaustion.
    early_stop: bool = False
    #: Compressed blocks fetched from storage (block-cache misses).
    blocks_read: int = 0
    #: Blocks decompressed (each charged once per fetch).
    blocks_decoded: int = 0
    #: Blocks pruned via resident headers without being decoded.
    blocks_skipped: int = 0
    #: Entries decoded across all blocks (the batched TUPLE_READ analogue).
    entries_decoded: int = 0
    #: Shards that actually evaluated work for this query (sharded runs).
    shards_probed: int = 0
    #: Shards terminated early by the distributed-TA coordinator.
    shards_pruned: int = 0
    #: Shards dropped because they exceeded the per-shard deadline.
    shards_timed_out: int = 0
    #: True when a fail-soft run returned partial results (shard timeout).
    degraded: bool = False
    #: Per-shard breakdown (one dict per shard, coordinator runs only).
    shard_stats: list[dict] = field(default_factory=list)
    #: Replica read leases granted while serving this query.
    replica_reads: int = 0
    #: Reads transparently retried on a sibling after a replica fault.
    replica_failovers: int = 0
    #: WAND pivot rounds that leapt a list instead of evaluating a doc.
    pivot_advances: int = 0
    #: Blocks leapt undecoded because the shallow block-max check failed.
    blocks_skipped_shallow: int = 0
    #: Documents fully evaluated by the DAAT loop (WAND only).
    docs_evaluated: int = 0

    def record_block_io(self, spent: object) -> None:
        """Copy block-level counters from a cost-snapshot difference."""
        self.blocks_read = spent.blocks_read
        self.blocks_decoded = spent.blocks_decoded
        self.blocks_skipped = spent.blocks_skipped
        self.entries_decoded = spent.entries_decoded

    def read_entire_lists(self) -> bool:
        """Did the run consume every sorted list to the end? (paper §5.2)"""
        if not self.list_lengths:
            return False
        return all(self.list_depths.get(term, 0) >= length
                   for term, length in self.list_lengths.items())

    def merge_with(self, other: "EvaluationStats") -> None:
        """Accumulate another clause's stats into this one (same method)."""
        self.cost += other.cost
        self.ideal_cost += other.ideal_cost
        self.rows_skipped += other.rows_skipped
        self.candidates += other.candidates
        self.early_stop = self.early_stop or other.early_stop
        self.blocks_read += other.blocks_read
        self.blocks_decoded += other.blocks_decoded
        self.blocks_skipped += other.blocks_skipped
        self.entries_decoded += other.entries_decoded
        self.shards_probed += other.shards_probed
        self.shards_pruned += other.shards_pruned
        self.shards_timed_out += other.shards_timed_out
        self.degraded = self.degraded or other.degraded
        self.replica_reads += other.replica_reads
        self.replica_failovers += other.replica_failovers
        self.pivot_advances += other.pivot_advances
        self.blocks_skipped_shallow += other.blocks_skipped_shallow
        self.docs_evaluated += other.docs_evaluated
        self.shard_stats.extend(other.shard_stats)
        for term, depth in other.list_depths.items():
            self.list_depths[term] = self.list_depths.get(term, 0) + depth
        for term, length in other.list_lengths.items():
            self.list_lengths[term] = self.list_lengths.get(term, 0) + length


@dataclass
class ResultSet:
    """Ranked answers to one query."""

    hits: list[ScoredHit]
    stats: EvaluationStats
    k: int | None = None  # None means "all answers"

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[ScoredHit]:
        return iter(self.hits)

    def __getitem__(self, index: int) -> ScoredHit:
        return self.hits[index]

    def top(self, k: int) -> list[ScoredHit]:
        return self.hits[:k]

    def element_keys(self) -> list[tuple[int, int]]:
        return [hit.element_key() for hit in self.hits]

    def scores(self) -> list[float]:
        return [hit.score for hit in self.hits]
