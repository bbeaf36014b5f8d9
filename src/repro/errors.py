"""Exception hierarchy for the TReX reproduction.

All library errors derive from :class:`TrexError` so that callers can
catch a single base class.  Subsystems raise the most specific subclass
that applies.
"""

from __future__ import annotations


class TrexError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(TrexError):
    """A storage-engine invariant was violated (bad key, closed tree, ...)."""


class CodecError(StorageError):
    """A value could not be encoded to, or decoded from, bytes."""


class StorageCorruptionError(StorageError):
    """A persisted index image is torn, truncated or malformed.

    Raised (instead of ``struct.error``/``IndexError``/``zlib.error``)
    whenever a store read cannot be completed because the bytes on disk
    are not a well-formed image.  The message always carries the path
    (or blob name) and, when known, the sequence/segment id, so an
    operator can tell *which* artifact to restore from a replica.
    """

    def __init__(self, source: str, detail: str,
                 sequence_id: int | None = None) -> None:
        where = source if sequence_id is None else f"{source} (segment {sequence_id})"
        super().__init__(f"{where}: {detail}")
        self.source = source
        self.detail = detail
        self.sequence_id = sequence_id


class SchemaError(StorageError):
    """A row does not conform to its table schema."""


class XMLParseError(TrexError):
    """The positional XML parser rejected its input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class NexiSyntaxError(TrexError):
    """A NEXI query string could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at offset {position})" if position is not None else ""
        super().__init__(f"{message}{suffix}")
        self.position = position


class SummaryError(TrexError):
    """A structural summary was used in an unsupported way."""


class RetrievalError(TrexError):
    """Query evaluation failed (missing index, bad method name, ...)."""


class MissingIndexError(RetrievalError):
    """A retrieval strategy requires an index that is not materialized."""

    def __init__(self, kind: str, term: str | None = None, sid: int | None = None) -> None:
        detail = kind
        if term is not None:
            detail += f" for term {term!r}"
        if sid is not None:
            detail += f" (sid {sid})"
        super().__init__(f"required index not materialized: {detail}")
        self.kind = kind
        self.term = term
        self.sid = sid


class WorkloadError(TrexError):
    """A workload definition is invalid (frequencies, duplicate ids, ...)."""


class ServiceError(TrexError):
    """A failure in the concurrent query-serving layer."""


class LockUsageError(ServiceError):
    """A concurrency primitive was used outside its protocol (e.g. a
    release without a matching acquire)."""


class SanitizerError(TrexError):
    """Base class for failures reported by the runtime sanitizer
    (``REPRO_SANITIZE=1``); see :mod:`repro.sanitizer`."""


class LockOrderViolation(SanitizerError):
    """Two locks were acquired in opposite orders on different paths —
    a latent deadlock."""

    def __init__(self, first: str, second: str, prior_site: str, site: str) -> None:
        super().__init__(
            f"lock-order inversion: {second!r} acquired while holding "
            f"{first!r} at {site}, but the opposite order was recorded "
            f"at {prior_site}")
        self.first = first
        self.second = second
        self.prior_site = prior_site
        self.site = site


class UnguardedMutationError(SanitizerError):
    """Engine state registered as lock-guarded was mutated by a thread
    that does not hold the writer side of the guarding RW lock."""


class UnknownStatKeyError(SanitizerError):
    """A telemetry key was emitted that is not declared in the central
    stats registry (:mod:`repro.service.registry`)."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(
            f"unregistered telemetry {kind} key {name!r}; declare it in "
            f"repro.service.registry")
        self.kind = kind
        self.name = name


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request because the queue is full."""

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"service overloaded: admission queue is full ({queue_depth} pending)")
        self.queue_depth = queue_depth


class ServiceClosedError(ServiceError):
    """A request arrived after the service began shutting down."""


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before a worker could start it."""

    def __init__(self, waited: float, deadline: float) -> None:
        super().__init__(
            f"deadline exceeded: queued for {waited:.3f}s "
            f"with a {deadline:.3f}s deadline")
        self.waited = waited
        self.deadline = deadline


class OptimizationError(TrexError):
    """Index-selection optimization failed or was given bad inputs."""


class ShardError(TrexError):
    """A failure in the partitioned (sharded) engine layer."""


class ShardTimeoutError(ShardError):
    """A shard exceeded its per-shard deadline and fail-soft was off."""

    def __init__(self, shard_index: int, elapsed: float, deadline: float) -> None:
        super().__init__(
            f"shard {shard_index} exceeded its deadline: "
            f"ran {elapsed:.3f}s against a {deadline:.3f}s budget")
        self.shard_index = shard_index
        self.elapsed = elapsed
        self.deadline = deadline


class ReplicaError(TrexError):
    """A failure in the replica-group layer (:mod:`repro.replica`)."""


class ReplicaFaultError(ReplicaError):
    """One replica failed while serving a read.

    Raised by the liveness check of a read lease — either because the
    replica was killed (process death simulation) or because a fault
    was injected by the test hook.  The group catches this and fails
    the read over to a healthy sibling; it only escapes the group when
    every sibling is faulty too (see :class:`ReplicaQuorumError`).
    """

    def __init__(self, replica_index: int, reason: str = "replica fault") -> None:
        super().__init__(f"replica {replica_index} failed: {reason}")
        self.replica_index = replica_index
        self.reason = reason


class ReplicaQuorumError(ReplicaError):
    """No healthy replica is left to serve a read.

    Under ``fail_soft`` the coordinator degrades the query (the shard's
    contribution is dropped and the result is tagged ``degraded``);
    otherwise this propagates to the caller as a hard failure.
    """

    def __init__(self, group: str, healthy: int, total: int) -> None:
        super().__init__(
            f"replica group {group!r} lost quorum: "
            f"{healthy} of {total} replicas healthy")
        self.group = group
        self.healthy = healthy
        self.total = total


class ReplicaDivergenceError(ReplicaError):
    """A shipped replication record did not apply cleanly on a follower
    (segment-id mismatch or a missing target segment) — the follower's
    catalog has diverged from the leader's."""
