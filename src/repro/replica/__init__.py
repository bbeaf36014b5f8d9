"""repro.replica — replica groups per shard with load-balanced reads,
health/failover, and a replication log of leader writes.

See ``docs/replication.md`` for the topology, the read policies, the
replication protocol and the failure matrix.
"""

from .deltalog import (
    DeltaLog,
    DocumentRecord,
    ReplicationRecord,
    SegmentDropRecord,
    SegmentInstallRecord,
    SnapshotInstallRecord,
)
from .group import Replica, ReplicaGroup, ReplicaLease
from .health import DOWN, PROBING, UP, ReplicaHealth
from .policies import (
    READ_POLICIES,
    LeastInflightPolicy,
    PowerOfTwoPolicy,
    ReadPolicy,
    RoundRobinPolicy,
    make_read_policy,
)

__all__ = [
    "DeltaLog",
    "DocumentRecord",
    "ReplicationRecord",
    "SegmentDropRecord",
    "SegmentInstallRecord",
    "SnapshotInstallRecord",
    "Replica",
    "ReplicaGroup",
    "ReplicaLease",
    "ReplicaHealth",
    "UP",
    "DOWN",
    "PROBING",
    "READ_POLICIES",
    "ReadPolicy",
    "RoundRobinPolicy",
    "LeastInflightPolicy",
    "PowerOfTwoPolicy",
    "make_read_policy",
]
