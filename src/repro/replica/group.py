"""ReplicaGroup: N engine replicas of one shard behind one interface.

Reads are load-balanced over the healthy replicas by a pluggable
:mod:`~repro.replica.policies` policy, with per-replica health tracking
(:mod:`~repro.replica.health`) and transparent failover: a read that
hits a faulty replica is retried on a healthy sibling, and only when
*no* sibling is left does :class:`~repro.errors.ReplicaQuorumError`
escape to the coordinator (which degrades the query under fail-soft).

Writes go **leader-first**: replica 0 is the leader, every catalog
mutation is applied there, sealed into a :class:`~repro.replica.
deltalog.DeltaLog` record, and shipped to the attached followers in log
order.  An ingested document is re-ingested on each follower: every
replica extends the same base indexes with the same documents and
shares one scorer, so the restricted ERA pass yields the leader's delta
rows.  Built segments and compactions ship as the leader's block
images, installed under the leader's segment ids.  Either way each
follower's catalog is byte-identical to the leader's at its applied
offset — the golden invariant holds on every replica.  A group starts
in sync: a leader that already holds segments ships them to its new
followers the same way.  A follower that was detached replays the log
tail on re-attach (catch-up).

The fault-injection hooks (``kill`` / ``revive`` / ``inject_fault``)
model process death for tests and the CI smoke job: a killed replica
fails its lease's liveness check, which is what triggers failover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from .. import sanitizer
from ..build.batch import BuildReport
from ..build.planner import BuildPlanner
from ..corpus.document import Document
from ..errors import (
    ReplicaDivergenceError,
    ReplicaError,
    ReplicaFaultError,
    ReplicaQuorumError,
    StorageError,
)
from ..index.catalog import IndexSegment
from ..index.rpl import RplEntry
from ..retrieval.engine import TrexEngine
from .deltalog import (
    DeltaLog,
    DocumentRecord,
    ReplicationRecord,
    SegmentDropRecord,
    SegmentInstallRecord,
    SnapshotInstallRecord,
)
from .health import PROBING, UP, ReplicaHealth
from .policies import make_read_policy

__all__ = ["Replica", "ReplicaLease", "ReplicaGroup"]

_T = TypeVar("_T")

#: Cumulative group counters (snapshot keys and ``replica.*`` telemetry).
_COUNTER_KEYS = ("reads", "failovers", "faults", "records_shipped",
                 "catchup_records", "snapshot_installs")


@dataclass
class Replica:
    """One engine replica plus its serving state.

    The mutable attributes are guarded by the owning group's
    ``_state_lock`` (declared here because the attributes live on this
    class; the lock lives on :class:`ReplicaGroup`).
    """

    index: int
    engine: TrexEngine
    health: ReplicaHealth
    inflight: int = 0
    reads: int = 0
    #: Replication offset this replica has applied up to (leader: head).
    applied_offset: int = 0
    #: Attached followers receive shipped records; a detached one
    #: catches up by replay on re-attach.
    attached: bool = True
    #: Fault-injection: a killed replica fails every liveness check.
    alive: bool = True
    #: Fault-injection: number of liveness checks to pass before the
    #: next (single-shot) injected fault; ``None`` means disarmed.
    fault_budget: int | None = None

    __guarded_by__ = {"_state_lock": ("inflight", "reads", "applied_offset",
                                      "attached", "alive", "fault_budget")}

    @property
    def is_leader(self) -> bool:
        return self.index == 0


@dataclass
class ReplicaLease:
    """One granted read on one replica.

    The holder calls :meth:`check` before each unit of work (the
    liveness hook that makes mid-query kills observable), then exactly
    one of :meth:`succeed` / :meth:`fail` / :meth:`release`.
    """

    group: "ReplicaGroup"
    replica: Replica
    #: ``perf_counter`` when the lease was granted.
    started: float = field(default_factory=time.perf_counter, init=False)
    _done: bool = field(default=False, init=False)

    @property
    def engine(self) -> TrexEngine:
        return self.replica.engine

    def check(self) -> None:
        """Raise :class:`ReplicaFaultError` if the replica has died."""
        self.group.check_fault(self.replica)

    def succeed(self, *, elapsed: float | None = None) -> None:
        if not self._done:
            self._done = True
            self.group.finish_read(self.replica, ok=True, elapsed=elapsed)

    def fail(self) -> None:
        if not self._done:
            self._done = True
            self.group.finish_read(self.replica, ok=False)

    def release(self) -> None:
        """Return the lease without a health verdict (the query failed,
        not the replica); a probe read re-arms its breaker."""
        if not self._done:
            self._done = True
            self.group.finish_read(self.replica, ok=None)


class ReplicaGroup:
    """Load-balanced reads and leader-first replicated writes."""

    __guarded_by__ = {"_state_lock": ("_counters",)}

    def __init__(self, engines: Sequence[TrexEngine], *,
                 name: str = "group0",
                 read_policy: str = "round_robin",
                 quorum: int = 1,
                 failure_threshold: int = 2,
                 probe_interval: float = 0.25,
                 read_deadline: float | None = None,
                 policy_seed: int = 1729,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not engines:
            raise ReplicaError("a replica group needs at least one engine")
        self.name = name
        self.read_policy = read_policy
        self.quorum = max(1, quorum)
        self.read_deadline = read_deadline
        self._policy = make_read_policy(read_policy, seed=policy_seed)
        self._state_lock = sanitizer.make_lock(f"{name}-replica-state")
        self.log = DeltaLog(name)
        self.replicas: list[Replica] = [
            Replica(index=index, engine=engine,
                    health=ReplicaHealth(failure_threshold=failure_threshold,
                                         probe_interval=probe_interval,
                                         clock=clock))
            for index, engine in enumerate(engines)]
        self._counters: dict[str, int] = {key: 0 for key in _COUNTER_KEYS}
        if len(self.replicas) > 1:
            self._seed_followers_locked()

    def _seed_followers_locked(self) -> None:
        """Start the group in sync when its leader already holds
        segments (an adopted engine): the leader's delta runs fold first
        (a compaction, which keeps the answers), then each resident
        segment ships to the new followers as its block image under the
        leader's id."""
        catalog = self.leader.engine.catalog
        with catalog.cost_model.muted():
            for segment_id in catalog.compaction_candidates(0.0, force=True):
                catalog.compact_segment(segment_id)
            for segment in list(catalog.segments()):
                self._replicate_locked(SegmentInstallRecord(
                    segment_id=segment.segment_id, kind=segment.kind,
                    term=segment.term, scope=segment.scope,
                    image=self._image(segment)))

    @property
    def leader(self) -> Replica:
        return self.replicas[0]

    def __len__(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lease(self, *, exclude: frozenset[int] = frozenset(),
              on_event: Callable[[str], None] | None = None) -> ReplicaLease:
        """Grant a read on one replica chosen by the policy.

        A ``down`` replica whose probe interval has elapsed is admitted
        half-open and *preferred*, so the probe read actually reaches
        it.  Raises :class:`ReplicaQuorumError` when no replica outside
        *exclude* is admissible.
        """
        with self._state_lock:
            eligible: list[Replica] = []
            probe: Replica | None = None
            for replica in self.replicas:
                if replica.index in exclude or not replica.attached:
                    continue
                if replica.health.admit():
                    eligible.append(replica)
                    if replica.health.state == PROBING and probe is None:
                        probe = replica
            if not eligible:
                raise ReplicaQuorumError(self.name, self.healthy_count(),
                                         len(self.replicas))
            chosen = probe if probe is not None else \
                self._policy.choose(eligible)
            chosen.inflight += 1
            chosen.reads += 1
            self._counters["reads"] += 1
        if on_event is not None:
            on_event("read")
        return ReplicaLease(self, chosen)

    def open_read(self, fn: Callable[[TrexEngine], _T], *,
                  excluded: set[int],
                  faulted: ReplicaLease | None = None,
                  on_event: Callable[[str], None] | None = None,
                  ) -> tuple[ReplicaLease, _T]:
        """The failover loop: lease a replica outside *excluded*, check
        it and run *fn* on its engine; return the still-open lease (the
        caller settles it) with *fn*'s result.

        A :class:`ReplicaFaultError` (killed replica, injected fault)
        fails the lease, adds the replica to *excluded* and retries on a
        sibling — as does a *faulted* lease the caller hands back after
        a fault mid-work.  Raises :class:`ReplicaQuorumError` once no
        replica is admissible; any other error releases the lease
        verdict-free and propagates — it would fail identically on
        every replica.
        """
        lease = faulted
        while True:
            if lease is not None:
                lease.fail()
                excluded.add(lease.replica.index)
                self.note_failover(on_event)
            lease = self.lease(exclude=frozenset(excluded),
                               on_event=on_event)
            try:
                lease.check()
                return lease, fn(lease.engine)
            except ReplicaFaultError:
                continue
            except BaseException:
                lease.release()
                raise

    def run_read(self, fn: Callable[[TrexEngine], _T], *,
                 on_event: Callable[[str], None] | None = None) -> _T:
        """Run *fn* against a healthy replica, failing over on faults
        (:meth:`open_read`), and settle the lease."""
        lease, result = self.open_read(fn, excluded=set(), on_event=on_event)
        lease.succeed(elapsed=time.perf_counter() - lease.started)
        return result

    def check_fault(self, replica: Replica) -> None:
        """The lease liveness check (see :class:`ReplicaLease`)."""
        with self._state_lock:
            if not replica.alive:
                raise ReplicaFaultError(replica.index, "replica killed")
            if replica.fault_budget is not None:
                if replica.fault_budget <= 0:
                    replica.fault_budget = None
                    raise ReplicaFaultError(replica.index, "injected fault")
                replica.fault_budget -= 1

    def finish_read(self, replica: Replica, *, ok: bool | None,
                    elapsed: float | None = None) -> None:
        with self._state_lock:
            replica.inflight = max(0, replica.inflight - 1)
            if ok is None:
                replica.health.record_release()
                return
            if ok:
                if (self.read_deadline is not None and elapsed is not None
                        and elapsed > self.read_deadline):
                    # Deadline-based marking: the read finished, but a
                    # replica this slow should stop taking traffic.
                    replica.health.record_failure(mark_now=True)
                else:
                    replica.health.record_success()
            else:
                self._counters["faults"] += 1
                replica.health.record_failure()

    def note_failover(self,
                      on_event: Callable[[str], None] | None = None) -> None:
        with self._state_lock:
            self._counters["failovers"] += 1
        if on_event is not None:
            on_event("failover")

    # ------------------------------------------------------------------
    # Leader-first writes + delta shipping
    # ------------------------------------------------------------------
    @sanitizer.mutates_engine_state
    def add_document(self, document: Document) -> Document:
        """Ingest on the leader, then ship the document to followers."""
        self.leader.engine.add_document(document)
        self._replicate_locked(DocumentRecord(document))
        return document

    @sanitizer.mutates_engine_state
    def warm_segments(self, missing: list[tuple]) -> BuildReport:
        """Materialize missing segments on the leader and broadcast the
        built images to followers (see ``TrexEngine.warm_segments``);
        returns the leader's build report."""
        engine = self.leader.engine
        planner = BuildPlanner()
        planner.add_missing(missing)
        report, installed = engine.build_plan(planner.plan())
        with engine.cost_model.muted():
            for segment in installed:
                self._replicate_locked(SegmentInstallRecord(
                    segment_id=segment.segment_id, kind=segment.kind,
                    term=segment.term, scope=segment.scope,
                    image=self._image(segment)))
        return report

    @sanitizer.mutates_engine_state
    def install_entries(self, kind: str, term: str,
                        entries: list[RplEntry],
                        scope: Iterable[int] | None = None,
                        compression: str | None = None) -> IndexSegment:
        """Build one segment from *entries* on the leader and broadcast
        it — the advisor's and the autopilot's chosen-build install
        path.  *compression* overrides the catalog codec (a plan's zlib
        choices); a group without followers serializes no image."""
        engine = self.leader.engine
        with engine.cost_model.muted():
            sequence = engine.catalog.build_sequence(kind, entries,
                                                     compression)
            segment = engine.catalog.install_sequence(kind, term, sequence,
                                                      scope=scope)
            image = sequence.to_bytes() if len(self.replicas) > 1 else b""
        self._replicate_locked(SegmentInstallRecord(
            segment_id=segment.segment_id, kind=kind, term=term,
            scope=segment.scope, image=image))
        return segment

    @sanitizer.mutates_engine_state
    def drop_segment(self, segment_id: int) -> None:
        """Retire a segment on every replica (advisor eviction)."""
        catalog = self.leader.engine.catalog
        segment = catalog.get_segment(segment_id)
        catalog.drop_segment(segment_id)
        self._replicate_locked(SegmentDropRecord(segment_id=segment_id,
                                                 kind=segment.kind,
                                                 term=segment.term))

    @sanitizer.mutates_engine_state
    def compact_segments(self, *, ratio: float | None = None,
                         force: bool = False) -> int:
        """Fold delta runs on the leader; each folded segment ships to
        followers as a snapshot-install of the compacted base image."""
        engine = self.leader.engine
        limit = engine.compaction_ratio if ratio is None else ratio
        with engine.cost_model.muted():
            candidates = engine.catalog.compaction_candidates(limit,
                                                              force=force)
            for segment_id in candidates:
                segment = engine.catalog.compact_segment(segment_id)
                self._replicate_locked(SnapshotInstallRecord(
                    segment_id=segment_id, kind=segment.kind,
                    term=segment.term, image=self._image(segment)))
        return len(candidates)

    def _image(self, segment: IndexSegment) -> bytes:
        """The leader's block image of *segment*, to ship — none for a
        group without followers."""
        if len(self.replicas) == 1:
            return b""
        return self.leader.engine.catalog.blocks_for(segment).to_bytes()

    def _replicate_locked(self, record: ReplicationRecord) -> None:
        """Seal *record* and ship it to every attached follower.

        ``_locked``: only called from the decorated group mutators
        above, whose writer-side contract the runtime sanitizer
        enforces when the group is guarded.
        """
        offset = self.log.append(record)
        self.leader.applied_offset = offset
        shipped = 0
        for replica in self.replicas[1:]:
            if not replica.attached:
                continue
            self._apply_record_locked(replica, offset, record)
            shipped += 1
        if shipped:
            with self._state_lock:
                self._counters["records_shipped"] += shipped
        self.log.truncate_to(min(replica.applied_offset
                                 for replica in self.replicas))

    def _apply_record_locked(self, replica: Replica, offset: int,
                             record: ReplicationRecord) -> None:
        """Install one shipped record on *replica* (follower side)."""
        engine = replica.engine
        try:
            with engine.cost_model.muted():
                if isinstance(record, DocumentRecord):
                    engine.add_document(record.document)
                elif isinstance(record, SegmentInstallRecord):
                    engine.catalog.install_segment_bytes(
                        record.kind, record.term, record.image,
                        scope=record.scope, segment_id=record.segment_id)
                elif isinstance(record, SnapshotInstallRecord):
                    # A compaction of a segment this replica never got
                    # (a leader-local lazy build) — or whose id a
                    # different local lazy build reused — is a no-op.
                    if self._resident_matches(engine, record):
                        engine.catalog.install_compacted_bytes(
                            record.segment_id, record.image)
                        with self._state_lock:
                            self._counters["snapshot_installs"] += 1
                elif isinstance(record, SegmentDropRecord):
                    if self._resident_matches(engine, record):
                        engine.catalog.drop_segment(record.segment_id)
                else:
                    raise ReplicaDivergenceError(
                        f"replica {replica.index} of group {self.name!r} "
                        f"received unknown record type "
                        f"{type(record).__name__} at offset {offset}")
        except StorageError as exc:
            raise ReplicaDivergenceError(
                f"replica {replica.index} of group {self.name!r} could "
                f"not apply record at offset {offset}: {exc}") from exc
        replica.applied_offset = offset

    @staticmethod
    def _resident_matches(engine: TrexEngine,
                          record: SnapshotInstallRecord | SegmentDropRecord
                          ) -> bool:
        """Does this replica hold the list the record addresses (same
        id, kind and term), as opposed to an unrelated replica-local
        lazy build that reused the id — or nothing at all?"""
        if not engine.catalog.has_segment(record.segment_id):
            return False
        resident = engine.catalog.get_segment(record.segment_id)
        return (resident.kind, resident.term) == (record.kind, record.term)

    # ------------------------------------------------------------------
    # Membership, catch-up and fault injection
    # ------------------------------------------------------------------
    def _replica(self, replica_index: int) -> Replica:
        try:
            return self.replicas[replica_index]
        except IndexError:
            raise ReplicaError(
                f"group {self.name!r} has no replica {replica_index}"
                ) from None

    @sanitizer.mutates_engine_state
    def detach(self, replica_index: int) -> None:
        """Stop shipping to a follower (restart / net-split simulation).

        Its applied offset is retained, so the log keeps the tail it
        will need to replay on :meth:`attach`.
        """
        replica = self._replica(replica_index)
        if replica.is_leader:
            raise ReplicaError("cannot detach the leader")
        with self._state_lock:
            replica.attached = False

    @sanitizer.mutates_engine_state
    def attach(self, replica_index: int) -> int:
        """Re-join a follower: replay the log tail past its offset.

        Returns the number of records replayed (the catch-up depth).
        """
        replica = self._replica(replica_index)
        if replica.is_leader:
            return 0
        pending = self.log.records_since(replica.applied_offset)
        for offset, record in pending:
            self._apply_record_locked(replica, offset, record)
        with self._state_lock:
            replica.attached = True
            if pending:
                self._counters["catchup_records"] += len(pending)
        return len(pending)

    def kill(self, replica_index: int) -> None:
        """Fault-injection: the replica fails every read from now on."""
        replica = self._replica(replica_index)
        with self._state_lock:
            replica.alive = False
            replica.health.record_failure(mark_now=True)

    def revive(self, replica_index: int) -> None:
        """Undo :meth:`kill`; health recovers via the half-open probe."""
        replica = self._replica(replica_index)
        with self._state_lock:
            replica.alive = True

    def inject_fault(self, replica_index: int, *, after: int = 0) -> None:
        """Arm a single-shot fault that fires on the ``after+1``-th
        liveness check — the mid-query kill hook for tests."""
        replica = self._replica(replica_index)
        with self._state_lock:
            replica.fault_budget = after

    @sanitizer.mutates_engine_state
    def reset_replication(self) -> None:
        """Declare every replica in sync at a fresh log origin (after a
        rebuild or reload that was applied identically to all)."""
        self.log.clear()
        with self._state_lock:
            for replica in self.replicas:
                replica.applied_offset = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthy_count(self) -> int:
        """Replicas currently serving (attached, alive, state ``up``)."""
        return sum(1 for replica in self.replicas
                   if replica.attached and replica.alive
                   and replica.health.state == UP)

    @property
    def quorum_met(self) -> bool:
        return self.healthy_count() >= self.quorum

    def counters(self) -> dict[str, int]:
        with self._state_lock:
            return dict(self._counters)

    def snapshot(self) -> dict[str, object]:
        """The ``/replicas`` row for this group."""
        log = self.log.snapshot()
        head = log["head"]
        with self._state_lock:
            rows = []
            for replica in self.replicas:
                row: dict[str, object] = {
                    "replica": replica.index,
                    "role": "leader" if replica.is_leader else "follower",
                    "alive": replica.alive,
                    "attached": replica.attached,
                    "inflight": replica.inflight,
                    "reads": replica.reads,
                    "applied_offset": replica.applied_offset,
                    "lag": head - replica.applied_offset,
                }
                row.update(replica.health.snapshot())
                rows.append(row)
            counters = dict(self._counters)
        healthy = self.healthy_count()
        return {
            "name": self.name,
            "read_policy": self.read_policy,
            "quorum": self.quorum,
            "healthy": healthy,
            "quorum_met": healthy >= self.quorum,
            "log": log,
            "counters": counters,
            "replicas": rows,
        }
