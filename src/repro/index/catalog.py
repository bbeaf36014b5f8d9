"""The index catalog: which RPL/ERPL segments are materialized.

The paper's self-management problem is *which* redundant lists to keep:
"a system should store only the lists that contribute the most to the
efficiency of handling a given workload" (§4).  The catalog is the
registry the engine and the advisor share:

* a **segment** is one materialized list — an RPL or an ERPL — for one
  term, with a *scope*: either universal (``None``: entries for every
  extent containing the term) or a specific sid set (a query-scoped,
  usually much smaller, redundant index);
* each segment's entries are stored as a compressed
  :class:`~repro.storage.blocks.BlockSequence` — delta+varint blocks of
  ~128 entries with a resident skip directory of per-block headers —
  and ``size_bytes`` is the **compressed** footprint, which is what the
  advisor trades against the disk budget ``d``;
* a lookup finds the best (smallest superset-scope) segment usable to
  answer a query over a given sid set — using a superset segment is
  correct but costs skipping, which is exactly the TA behaviour the
  paper observes on universal lists.

Block layouts (cf. paper §2.2, fragmentation done block-per-run):

* RPL blocks: key ``(ir)`` — the descending-relevance rank, so reading
  blocks in order performs sorted access, and each header's
  ``max_score`` bounds everything at or below that rank (block-max);
* ERPL blocks: key ``(sid, docid, endpos)`` — per-(term, sid) ranges in
  position order, so Merge leaps (via ``first_key``/``last_key``) to a
  query's extents.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from ..backend import PROFILES, check_compression, make_backend, open_backend
from ..errors import MissingIndexError, StorageError
from ..index.rpl import (
    RplEntry,
    encode_run,
    erpl_block_codec,
    rpl_block_codec,
    rpl_entry_from_block,
)
from ..storage.blocks import DEFAULT_BLOCK_SIZE, BlockSequence
from ..storage.cost import CostModel, GLOBAL_COST_MODEL
from ..storage.pager import PageCache

__all__ = ["IndexSegment", "IndexCatalog"]


@dataclass(frozen=True)
class IndexSegment:
    """Metadata for one materialized list."""

    segment_id: int
    kind: str  # 'rpl' or 'erpl'
    term: str
    scope: frozenset[int] | None  # None means universal
    entry_count: int
    size_bytes: int
    compression: str = "none"

    def covers(self, sids: Iterable[int]) -> bool:
        """Can this segment answer a query restricted to *sids*?"""
        if self.scope is None:
            return True
        return set(sids) <= self.scope

    @property
    def is_universal(self) -> bool:
        return self.scope is None

    def describe(self) -> str:
        scope = "ALL" if self.scope is None else f"{len(self.scope)} sids"
        codec = "" if self.compression == "none" else f", {self.compression}"
        return (f"{self.kind.upper()}({self.term!r}, {scope}, "
                f"{self.entry_count} entries, {self.size_bytes} B{codec})")


class IndexCatalog:
    """Registry plus block storage for all RPL/ERPL segments."""

    def __init__(self, cost_model: CostModel | None = None,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 backend: str = "pager",
                 compression: str = "none") -> None:
        self.cost_model = (cost_model if cost_model is not None
                           else GLOBAL_COST_MODEL)
        self.block_size = block_size
        if backend not in PROFILES:
            raise StorageError(f"unknown storage backend {backend!r}")
        #: Which datastore :meth:`save`/:meth:`load` use, and whose
        #: :class:`~repro.backend.CostProfile` scales block-read charges.
        self.backend = backend
        #: Default compression for newly built segments; individual
        #: segments may differ (the advisor installs per-segment codecs).
        self.compression = check_compression(compression)
        self._cache = PageCache(cost_model=self.cost_model)
        self._blocks: dict[int, BlockSequence] = {}
        self._deltas: dict[int, list[BlockSequence]] = {}
        self._segments: dict[int, IndexSegment] = {}
        self._next_segment_id = 1
        #: Cumulative maintenance counters, read by the serving layer to
        #: emit ``ingest.*``/``compaction.*`` telemetry as diffs.
        self.deltas_appended = 0
        self.delta_entries_appended = 0
        self.segments_compacted = 0
        self.delta_runs_folded = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _adopt(self, sequence: BlockSequence, segment_id: int,
               kind: str, term: str) -> None:
        """Stamp a sequence with this catalog's routing and identity."""
        sequence.cost_model = self.cost_model
        sequence.use_cache(self._cache)
        sequence.read_factor = PROFILES[self.backend].block_read_factor
        sequence.sequence_id = segment_id
        if sequence.source == "<memory>":
            sequence.source = f"{kind}:{term}"

    def add_rpl_segment(self, term: str, entries: list[RplEntry],
                        scope: Iterable[int] | None = None,
                        compression: str | None = None) -> IndexSegment:
        """Store *entries* as an RPL (descending-score order).

        *compression* overrides the catalog codec for this one segment
        (the advisor materializes individually chosen codecs this way).
        """
        return self.install_sequence(
            "rpl", term, self.build_sequence("rpl", entries, compression),
            scope=scope)

    def add_erpl_segment(self, term: str, entries: list[RplEntry],
                         scope: Iterable[int] | None = None,
                         compression: str | None = None) -> IndexSegment:
        """Store *entries* as an ERPL (blocks keyed by sid, then position)."""
        return self.install_sequence(
            "erpl", term, self.build_sequence("erpl", entries, compression),
            scope=scope)

    def build_sequence(self, kind: str, entries: list[RplEntry],
                       compression: str | None = None) -> BlockSequence:
        """Encode *entries* as one run of *kind* for this catalog
        (:func:`~repro.index.rpl.encode_run` at its block size, meter
        and cache).  *compression* defaults to the catalog's configured
        codec; delta appends pass their segment's codec so every run of
        a segment stores alike."""
        return encode_run(kind, entries, self.block_size,
                          cost_model=self.cost_model, cache=self._cache,
                          compression=(self.compression if compression is None
                                       else compression))

    def install_sequence(self, kind: str, term: str, sequence: BlockSequence,
                         scope: Iterable[int] | None = None, *,
                         segment_id: int | None = None,
                         compression: str | None = None) -> IndexSegment:
        """Register an externally built run as a new segment.

        This is the parent-side install step of the parallel build path:
        workers ship finished :class:`BlockSequence` images back, the
        parent re-hydrates them and installs under the writer lock.

        ``segment_id`` forces the id instead of allocating one — the
        replication path uses it so a follower installs a shipped run
        under exactly the leader's id, keeping later snapshot installs
        and drops (which address segments by id) aligned across
        replicas.  A forced id that is already taken raises
        :class:`~repro.errors.StorageError`: evaluation never builds,
        so a follower's ids come only from the leader, and a collision
        means the replicas have diverged.

        The sequence keeps the compression it arrived with (shipped
        images carry their codec tag) unless *compression* asks for a
        re-encode — the advisor's apply path uses that to materialize a
        chosen segment compressed into an otherwise-flat catalog.
        """
        if compression is not None:
            sequence = sequence.with_compression(compression)
        if segment_id is None:
            segment_id = self._next_segment_id
            self._next_segment_id += 1
        else:
            if segment_id in self._segments:
                raise StorageError(f"segment id {segment_id} is taken")
            self._next_segment_id = max(self._next_segment_id, segment_id + 1)
        self._adopt(sequence, segment_id, kind, term)
        segment = IndexSegment(
            segment_id=segment_id,
            kind=kind,
            term=term,
            scope=None if scope is None else frozenset(scope),
            entry_count=sequence.entry_count,
            size_bytes=sequence.size_bytes,
            compression=sequence.compression,
        )
        self._blocks[segment_id] = sequence
        self._segments[segment_id] = segment
        return segment

    def install_segment_bytes(self, kind: str, term: str, data: bytes,
                              scope: Iterable[int] | None = None, *,
                              segment_id: int | None = None) -> IndexSegment:
        """Install a serialized run image (see :meth:`install_sequence`)."""
        sequence = self._from_image(kind, data, f"{kind}:{term}", segment_id)
        return self.install_sequence(kind, term, sequence, scope=scope,
                                     segment_id=segment_id)

    def install_compacted_bytes(self, segment_id: int,
                                data: bytes) -> IndexSegment:
        """Replace a segment's base run with a compacted image and clear
        its delta runs (the replication *snapshot-install*).

        The image is the leader's post-compaction base run, which
        :meth:`compact_segment` guarantees is byte-identical to a
        from-scratch build over the extended collection — so after this
        call the follower's segment is byte-identical to the leader's.
        """
        segment = self.get_segment(segment_id)
        return self._replace_base(segment, self._from_image(
            segment.kind, data, f"{segment.kind}:{segment.term}", segment_id))

    def _from_image(self, kind: str, data: bytes, source: str,
                    segment_id: int | None) -> BlockSequence:
        """A serialized run of *kind*, read into this catalog's meter
        and cache."""
        codec = rpl_block_codec() if kind == "rpl" else erpl_block_codec()
        return BlockSequence.from_bytes(
            data, codec, cost_model=self.cost_model, cache=self._cache,
            source=source, sequence_id=segment_id)

    def _replace_base(self, segment: IndexSegment,
                      sequence: BlockSequence) -> IndexSegment:
        """Make *sequence* the base run of *segment* and fold its delta
        runs away: the end of both a compaction and a snapshot-install."""
        segment_id = segment.segment_id
        self._adopt(sequence, segment_id, segment.kind, segment.term)
        deltas = self._deltas.pop(segment_id, [])
        for run in [self._blocks[segment_id], *deltas]:
            run.invalidate()
        self._blocks[segment_id] = sequence
        updated = replace(segment, entry_count=sequence.entry_count,
                          size_bytes=sequence.size_bytes,
                          compression=sequence.compression)
        self._segments[segment_id] = updated
        self.segments_compacted += 1
        self.delta_runs_folded += len(deltas)
        return updated

    # ------------------------------------------------------------------
    # LSM delta runs
    # ------------------------------------------------------------------
    def append_delta(self, segment_id: int, entries: list[RplEntry]) -> IndexSegment:
        """Append a small delta run to a segment instead of dropping it.

        The read path merges base + deltas through the iterators; the
        per-run block headers keep block-max pruning sound because every
        run is individually ordered with its own max-score directory.
        """
        segment = self.get_segment(segment_id)
        if not entries:
            return segment
        run = self.build_sequence(segment.kind, entries,
                                  compression=segment.compression)
        self._adopt(run, segment_id, segment.kind, segment.term)
        self._deltas.setdefault(segment_id, []).append(run)
        updated = replace(segment,
                          entry_count=segment.entry_count + len(entries),
                          size_bytes=segment.size_bytes + run.size_bytes)
        self._segments[segment_id] = updated
        self.deltas_appended += 1
        self.delta_entries_appended += len(entries)
        return updated

    def runs_for(self, segment: IndexSegment) -> list[BlockSequence]:
        """Every run of *segment*: the base sequence plus delta runs, in
        append order.  Single-element for a segment with no deltas."""
        return [self.blocks_for(segment),
                *self._deltas.get(segment.segment_id, ())]

    def delta_run_count(self, segment_id: int) -> int:
        return len(self._deltas.get(segment_id, []))

    def delta_bytes(self, segment_id: int) -> int:
        return sum(run.size_bytes for run in self._deltas.get(segment_id, []))

    def needs_compaction(self, segment_id: int, ratio: float) -> bool:
        """True when the segment's delta footprint trips *ratio* of the
        base run (an empty base always trips)."""
        deltas = self._deltas.get(segment_id)
        if not deltas:
            return False
        base = self._blocks[segment_id].size_bytes
        if base == 0:
            return True
        return sum(run.size_bytes for run in deltas) >= ratio * base

    def compaction_candidates(self, ratio: float,
                              force: bool = False) -> list[int]:
        """Segment ids whose deltas should fold into the base run."""
        return [segment_id for segment_id in sorted(self._deltas)
                if self._deltas[segment_id]
                and (force or self.needs_compaction(segment_id, ratio))]

    def compact_segment(self, segment_id: int) -> IndexSegment:
        """Fold a segment's delta runs into a fresh base run.

        Each run is already sorted by the segment's block key, and keys
        are unique across runs (delta entries come from new docids), so
        a k-way merge reproduces the exact order a from-scratch build
        would sort into — the compacted run is byte-identical to a
        fresh materialization over the extended collection.
        """
        segment = self.get_segment(segment_id)
        deltas = self._deltas.get(segment_id)
        if not deltas:
            return segment
        merged: list[RplEntry] = []
        for run in self.runs_for(segment):
            merged.extend(self._run_entries(run, segment.kind))
        # build_sequence re-sorts by the segment's block key; keys are
        # unique across runs (deltas carry new docids), so the result is
        # exactly the from-scratch order.
        return self._replace_base(segment, self.build_sequence(
            segment.kind, merged, compression=segment.compression))

    def _run_entries(self, sequence: BlockSequence, kind: str) -> list[RplEntry]:
        """Decode one run's entries, uncharged (maintenance path)."""
        if kind == "rpl":
            # repro: allow[TRX201] documented uncharged maintenance path
            return [rpl_entry_from_block(row) for row in sequence.entries()]
        return [RplEntry(score, sid, docid, endpos, length)
                # repro: allow[TRX201] documented uncharged maintenance path
                for sid, docid, endpos, score, length in sequence.entries()]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def segments(self, kind: str | None = None) -> Iterator[IndexSegment]:
        for segment in self._segments.values():
            if kind is None or segment.kind == kind:
                yield segment

    def get_segment(self, segment_id: int) -> IndexSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise StorageError(f"unknown segment id {segment_id}") from None

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def find_segment(self, kind: str, term: str,
                     sids: Iterable[int]) -> IndexSegment | None:
        """Best segment of *kind* for *term* covering *sids*.

        Preference order: the segment with the smallest scope that still
        covers the requested sids (fewer entries to skip); a universal
        segment is the fallback.
        """
        sid_set = set(sids)
        best: IndexSegment | None = None
        for segment in self._segments.values():
            if segment.kind != kind or segment.term != term:
                continue
            if not segment.covers(sid_set):
                continue
            if best is None:
                best = segment
                continue
            best_rank = float("inf") if best.scope is None else len(best.scope)
            seg_rank = float("inf") if segment.scope is None else len(segment.scope)
            if seg_rank < best_rank:
                best = segment
        return best

    def require_segment(self, kind: str, term: str,
                        sids: Iterable[int]) -> IndexSegment:
        segment = self.find_segment(kind, term, sids)
        if segment is None:
            raise MissingIndexError(kind, term=term)
        return segment

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------
    def blocks_for(self, segment: IndexSegment) -> BlockSequence:
        """The block sequence holding *segment*'s entries."""
        try:
            return self._blocks[segment.segment_id]
        except KeyError:
            raise StorageError(
                f"segment {segment.segment_id} has no block storage") from None

    def segment_entries(self, segment: IndexSegment) -> list[RplEntry]:
        """All of *segment*'s entries, uncharged (maintenance path).

        RPL segments come back in rank (descending-score) order, ERPL
        segments in sid-major position order.  Delta runs are merged in,
        so the view is always the logical (base + deltas) list.
        """
        runs = self.runs_for(segment)
        entries: list[RplEntry] = []
        for run in runs:
            entries.extend(self._run_entries(run, segment.kind))
        if len(runs) > 1:
            if segment.kind == "rpl":
                entries.sort(key=lambda e: (-e.score, e.docid, e.endpos))
            else:
                entries.sort(key=lambda e: (e.sid, e.docid, e.endpos))
        return entries

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def drop_segment(self, segment_id: int) -> None:
        """Delete a segment's blocks (base and deltas) and unregister it."""
        self.get_segment(segment_id)
        sequence = self._blocks.pop(segment_id, None)
        if sequence is not None:
            sequence.invalidate()
        for run in self._deltas.pop(segment_id, []):
            run.invalidate()
        del self._segments[segment_id]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self._segments.values())

    def describe(self) -> list[str]:
        return [segment.describe() for segment in
                sorted(self._segments.values(), key=lambda s: s.segment_id)]

    def use_cache(self, cache: PageCache) -> None:
        """Route every segment's block residency through *cache*."""
        self._cache = cache
        for sequence in self._blocks.values():
            sequence.use_cache(cache)
        for runs in self._deltas.values():
            for run in runs:
                run.use_cache(cache)

    def delta_snapshot(self) -> dict[str, int]:
        """LSM state counters for stats endpoints and tests."""
        return {
            "segments_with_deltas": sum(1 for runs in self._deltas.values()
                                        if runs),
            "delta_runs": sum(len(runs) for runs in self._deltas.values()),
            "delta_bytes": sum(run.size_bytes
                               for runs in self._deltas.values()
                               for run in runs),
            "deltas_appended": self.deltas_appended,
            "delta_entries_appended": self.delta_entries_appended,
            "segments_compacted": self.segments_compacted,
            "delta_runs_folded": self.delta_runs_folded,
        }

    def storage_snapshot(self) -> dict[str, object]:
        """Backend, per-kind footprint and compression state.

        ``size_bytes`` is what segments occupy as stored; ``flat_bytes``
        what they would occupy uncompressed — their ratio is the
        compression ratio ``repro stats`` reports.  Delta runs count
        toward their segment's kind.
        """
        kinds: dict[str, dict[str, int]] = {}
        compressed_segments = 0
        for segment in self._segments.values():
            bucket = kinds.setdefault(
                segment.kind, {"segments": 0, "size_bytes": 0, "flat_bytes": 0})
            bucket["segments"] += 1
            for run in self.runs_for(segment):
                bucket["size_bytes"] += run.size_bytes
                bucket["flat_bytes"] += run.flat_size_bytes
            if segment.compression != "none":
                compressed_segments += 1
        size = sum(bucket["size_bytes"] for bucket in kinds.values())
        flat = sum(bucket["flat_bytes"] for bucket in kinds.values())
        return {
            "backend": self.backend,
            "compression": self.compression,
            "compressed_segments": compressed_segments,
            "kinds": kinds,
            "size_bytes": size,
            "flat_bytes": flat,
            "compression_ratio": round(size / flat, 4) if flat else 1.0,
        }

    def cache_stats(self) -> dict[str, int | float]:
        """Residency statistics of the catalog's block cache."""
        return {
            "capacity": self._cache.capacity,
            "resident": len(self._cache),
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "evictions": self._cache.evictions,
            "hit_rate": round(self._cache.hit_rate, 4),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist every segment's blocks and the segment metadata.

        All I/O goes through this catalog's :class:`~repro.backend.
        StorageBackend`: the pager writes the historical one-file-per-
        segment layout (``seg{ID}.blk`` + ``seg{ID}.d{N}.blk`` delta
        runs next to a ``segments.tsv`` manifest, so a save/load
        round-trip preserves the LSM state instead of silently
        compacting it); sqlite and mmap pack the same blobs into one
        store file.  Every backend publishes atomically.

        A fully flat catalog writes the pre-compression manifest layout
        byte-for-byte; compression adds a manifest column and a codec
        tag on line 1, which old files never carried, so loads stay
        backward compatible in both directions.
        """
        store = make_backend(self.backend, directory, mode="w")
        try:
            tagged = (self.compression != "none"
                      or any(segment.compression != "none"
                             for segment in self._segments.values()))
            lines = [f"{self._next_segment_id}\t{self.compression}"
                     if tagged else f"{self._next_segment_id}"]
            for segment in sorted(self._segments.values(),
                                  key=lambda s: s.segment_id):
                scope = ("*" if segment.scope is None
                         else ",".join(str(sid) for sid in sorted(segment.scope)))
                deltas = self._deltas.get(segment.segment_id, [])
                row = [str(segment.segment_id), segment.kind, segment.term,
                       scope, str(segment.entry_count),
                       str(segment.size_bytes), str(len(deltas))]
                if tagged:
                    row.append(segment.compression)
                lines.append("\t".join(row))
                store.write(f"seg{segment.segment_id}.blk",
                            self._blocks[segment.segment_id].to_bytes())
                for run_index, run in enumerate(deltas):
                    store.write(f"seg{segment.segment_id}.d{run_index}.blk",
                                run.to_bytes())
            store.write("segments.tsv",
                        ("\n".join(lines) + "\n").encode("utf-8"))
            store.sync()
        finally:
            store.close()

    def load(self, directory: str) -> None:
        """Replace this catalog's contents from a saved directory.

        The backend is auto-detected from the published artifacts, so a
        catalog configured one way can still open a store written
        another way — the catalog adopts the store's backend.  Every
        blob is read and validated before anything is replaced, so a
        corrupt store raises and leaves the catalog as it was.
        """
        store = open_backend(directory)
        try:
            text = store.read("segments.tsv").decode("utf-8")
            lines = [line for line in text.splitlines() if line.strip()]
            if not lines:
                raise StorageError(f"{directory}/segments.tsv is empty")
            head = lines[0].split("\t")
            next_segment_id = int(head[0])
            compression = (check_compression(head[1]) if len(head) > 1
                           else self.compression)
            segments: dict[int, IndexSegment] = {}
            blocks: dict[int, BlockSequence] = {}
            all_deltas: dict[int, list[BlockSequence]] = {}
            for line in lines[1:]:
                fields = line.split("\t")
                if len(fields) == 6:  # pre-delta catalog layout
                    (seg_id, kind, term, scope_text, entry_count,
                     size_bytes) = fields
                    delta_count = "0"
                elif len(fields) == 7:  # pre-compression layout
                    (seg_id, kind, term, scope_text, entry_count, size_bytes,
                     delta_count) = fields
                else:
                    (seg_id, kind, term, scope_text, entry_count, size_bytes,
                     delta_count, _compression_column) = fields
                scope = (None if scope_text == "*" else
                         frozenset(int(s) for s in scope_text.split(",") if s))
                segment_id = int(seg_id)
                blob = f"seg{segment_id}.blk"
                sequence = self._from_image(
                    kind, store.read(blob), os.path.join(directory, blob),
                    segment_id)
                # The image's codec tag is authoritative for the segment.
                segments[segment_id] = IndexSegment(
                    segment_id=segment_id, kind=kind, term=term, scope=scope,
                    entry_count=int(entry_count), size_bytes=int(size_bytes),
                    compression=sequence.compression)
                blocks[segment_id] = sequence
                runs: list[BlockSequence] = []
                for run_index in range(int(delta_count)):
                    blob = f"seg{segment_id}.d{run_index}.blk"
                    runs.append(self._from_image(
                        kind, store.read(blob), os.path.join(directory, blob),
                        segment_id))
                if runs:
                    all_deltas[segment_id] = runs
            self.backend = store.name
            self.compression = compression
            self._next_segment_id = next_segment_id
            self._segments, self._blocks, self._deltas = (
                segments, blocks, all_deltas)
            for segment in segments.values():
                for run in self.runs_for(segment):
                    self._adopt(run, segment.segment_id, segment.kind,
                                segment.term)
        finally:
            store.close()
