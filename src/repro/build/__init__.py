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
  of collection-wide entries — runs ERA over the Elements and
  PostingLists indexes for every requested ``(kind, term, scope)``
  target at once, reading nothing of the document store and leaving
  the engine's buffer pool and cost meter untouched;
* :func:`~repro.build.batch.compute_document_entries` is the ingest
  delta path: one new document's entries, from the document in hand.
"""

from .batch import (
    BatchBuildResult,
    BuildReport,
    compute_document_entries,
    compute_entries_batch,
    encode_run,
)
from .planner import BuildPlan, BuildPlanner, BuildTarget

__all__ = [
    "BatchBuildResult",
    "BuildPlan",
    "BuildPlanner",
    "BuildReport",
    "BuildTarget",
    "compute_document_entries",
    "compute_entries_batch",
    "encode_run",
]
