"""The central registry of telemetry keys.

Every counter, histogram and gauge name the serving layer emits is
declared here, in one place, so that:

* the TRX401 static checker can verify that each literal key at an
  ``incr``/``observe``/``register_gauge`` call site is declared — a
  typo'd counter would otherwise silently split its traffic and make
  ``/stats`` lie;
* dynamically suffixed families (``search.method.<m>``) are declared as
  explicit prefixes rather than sprouting ad hoc;
* ``REPRO_SANITIZE=1`` runs validate keys at emission time too, which
  covers names assembled at runtime where the static checker can only
  see the prefix.

Adding a key is a one-line change; forgetting to add it is a build
failure, not a silent lie in production telemetry.
"""

from __future__ import annotations

__all__ = [
    "COUNTERS",
    "COUNTER_PREFIXES",
    "HISTOGRAMS",
    "HISTOGRAM_PREFIXES",
    "GAUGES",
    "is_registered_counter",
    "is_registered_histogram",
    "is_registered_gauge",
]

#: Exact counter names.
COUNTERS: frozenset[str] = frozenset({
    "service.closed_requests",
    "http.internal_errors",
    "search.requests",
    "search.answered",
    "search.cache_hits",
    "search.cache_misses",
    "search.rejected",
    "search.deadline_exceeded",
    "search.errors",
    "search.degraded",
    "blocks.read",
    "blocks.decoded",
    "blocks.skipped",
    "blocks.entries_decoded",
    "rows.skipped",
    "shards.probed",
    "shards.pruned",
    "shards.timed_out",
    "ingest.documents",
    "ingest.scorer_rebuilds",
    "ingest.delta_runs",
    "ingest.delta_entries",
    "warmup.segments",
    "build.segments",
    "build.scans",
    "build.reused",
    "build.entries",
    "compaction.runs",
    "compaction.segments",
    "compaction.delta_runs_folded",
    "wand.pivot_advances",
    "wand.blocks_skipped_shallow",
    "wand.docs_evaluated",
    "sanitizer.violations",
    "replica.reads",
    "replica.failovers",
    "replica.faults",
    "replica.records_shipped",
    "replica.catchup_records",
    "replica.snapshot_installs",
})

#: Counter families with a runtime-chosen suffix (method names &c).
COUNTER_PREFIXES: tuple[str, ...] = (
    "search.method.",
    "replica.",
)

#: Exact histogram names.
HISTOGRAMS: frozenset[str] = frozenset({
    "search.latency_seconds",
    "search.simulated_cost",
    "ingest.latency_seconds",
    "build.latency_seconds",
    "compaction.latency_seconds",
})

#: Histogram families with a runtime-chosen suffix.
HISTOGRAM_PREFIXES: tuple[str, ...] = (
    "search.latency_seconds.",
)

#: Exact gauge names.
GAUGES: frozenset[str] = frozenset({
    "queue_depth",
    "epoch",
})


def _matches(name: str, exact: frozenset[str],
             prefixes: tuple[str, ...]) -> bool:
    if name in exact:
        return True
    return any(name.startswith(prefix) and len(name) > len(prefix)
               for prefix in prefixes)


def is_registered_counter(name: str) -> bool:
    return _matches(name, COUNTERS, COUNTER_PREFIXES)


def is_registered_histogram(name: str) -> bool:
    return _matches(name, HISTOGRAMS, HISTOGRAM_PREFIXES)


def is_registered_gauge(name: str) -> bool:
    return _matches(name, GAUGES, ())
