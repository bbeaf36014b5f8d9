"""repro.shard — partitioned indexes with scatter-gather top-k.

A :class:`ShardedEngine` splits one collection into N document shards
(each a full :class:`~repro.retrieval.engine.TrexEngine` with its own
summary, tables and segment catalog), coordinates retrieval with
distributed-TA early termination and per-shard deadlines, and exposes
the same surface the serving layer consumes.  :func:`shards_of` is
how every layer above the engines sees either engine kind: as a list of
:class:`Shard` (a plain engine is one unreplicated shard).  See
``docs/sharding.md``.
"""

from .engine import (Shard, ShardedEngine, ShardedTranslation, shards_of,
                     storage_snapshot, sum_counters)
from .partition import (
    POLICIES,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
    partition_collection,
)

__all__ = [
    "POLICIES",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "Shard",
    "ShardedEngine",
    "ShardedTranslation",
    "make_partitioner",
    "partition_collection",
    "shards_of",
    "storage_snapshot",
    "sum_counters",
]
