"""repro.build — the segment-materialization pipeline.

The paper builds RPLs and ERPLs with ERA ("TReX also uses ERA for
generating or extending the RPLs and ERPLs tables", §3.2) and treats
the cost of materializing redundant lists as the quantity the
self-manager must trade against query savings (§4).  This package does
the first and makes the second explicit:

* :class:`~repro.build.planner.BuildPlanner` collects every segment
  request (query warm-up, autopilot recommendations, CLI builds) into
  one deduplicated :class:`~repro.build.planner.BuildPlan`;
* :func:`~repro.build.batch.compute_entries_batch` — the one producer
  of entries — runs ERA over the Elements and PostingLists indexes for
  every requested ``(kind, term, scope)`` target at once, reading
  nothing of the document store and leaving the engine's buffer pool
  and cost meter untouched; restricted to one docid it yields an
  ingest's delta rows (a median 3.2–3.4 ms of CPU per ingest on the
  120-document ledger corpus, against 1.2–1.6 ms for the tree walk it
  replaced).
"""

from .batch import (
    BatchBuildResult,
    BuildReport,
    compute_entries_batch,
)
from .planner import BuildPlan, BuildPlanner, BuildTarget

__all__ = [
    "BatchBuildResult",
    "BuildPlan",
    "BuildPlanner",
    "BuildReport",
    "BuildTarget",
    "compute_entries_batch",
]
