"""The query-serving facade and its stdlib HTTP JSON API.

:class:`QueryService` wraps one :class:`TrexEngine` in the full serving
stack: a bounded executor admits and runs queries on worker threads, a
reader-writer lock lets any number of evaluations share the engine
while ingestion is exclusive, per-worker scoped cost models keep
simulated-cost accounting exact under concurrency, an epoch-stamped LRU
cache answers repeats, and an autopilot re-selects redundant indexes
from observed traffic.

The engine runs with ``auto_materialize`` off while being served: query
evaluation must never mutate the catalog from a read-locked context.
Forced methods that lack their segments either warm them under the
write lock (``materialize_on_demand``, the default) or fail with
:class:`MissingIndexError`; ``method='auto'`` always succeeds, falling
back to ERA until the autopilot (or warm-up) has materialized
something better — which is exactly the paper's self-managing story
playing out online.

:class:`TrexHTTPHandler` exposes the facade over HTTP using only the
standard library (``/search``, ``/explain``, ``/ingest``, ``/compact``,
``/stats``, ``/healthz``, ``/autopilot/cycle``); ``repro serve`` wires
it to the CLI.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .. import sanitizer
from ..errors import (
    DeadlineExceededError,
    MissingIndexError,
    RetrievalError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardTimeoutError,
    TrexError,
)
from ..retrieval.engine import METHOD_KINDS, TrexEngine, check_request
from ..retrieval.result import ResultSet
from ..shard import ShardedEngine, storage_snapshot, sum_counters
from .autopilot import Autopilot, WorkloadRecorder
from .cache import ResultCache
from .executor import BoundedExecutor
from .locks import ReadWriteLock, WorkerCostModels
from .telemetry import Telemetry

__all__ = ["ServiceConfig", "QueryService", "TrexHTTPHandler", "make_server",
           "install_shutdown_handlers", "serve_until_shutdown"]


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`QueryService` (see docs/service.md)."""

    workers: int = 4
    queue_depth: int = 64
    cache_capacity: int = 256
    #: Seconds a request may wait for a worker before being rejected
    #: (None = wait indefinitely).
    default_deadline: float | None = None
    #: Warm missing universal segments for forced methods under the
    #: write lock; when off, forced methods fail with MissingIndexError.
    materialize_on_demand: bool = True
    #: Seconds between autopilot cycles; None leaves the autopilot
    #: manual (drive it with service.autopilot.run_cycle()).
    autopilot_interval: float | None = None
    autopilot_budget: int = 1 << 20
    autopilot_selector: str = "greedy"
    autopilot_top_queries: int = 8
    autopilot_min_observations: int = 8
    #: k recorded into the workload when a query asked for all answers.
    default_k: int = 10
    #: Partition the engine into this many shards (1 = monolithic).
    #: An engine that is already a ShardedEngine is used as-is.
    shards: int = 1
    shard_policy: str = "hash"
    #: Engine replicas per shard (1 = unreplicated).  Reads are
    #: load-balanced over the group; writes go leader-first with LSM
    #: delta-run shipping (see docs/replication.md).
    replicas: int = 1
    #: Read-balancing policy: round_robin | least_inflight | power_of_two.
    read_policy: str = "round_robin"
    #: Healthy replicas per shard below which ``/replicas`` reports the
    #: group as quorum-lost (reads keep working while >= 1 is healthy).
    quorum: int = 1
    #: Per-shard wall-clock budget in seconds (None = unbounded).
    shard_deadline: float | None = None
    #: On shard timeout, return partial results tagged ``degraded``
    #: (HTTP 200) instead of failing the query with a 504.
    fail_soft: bool = True
    #: Fold LSM delta runs into base segments right after each ingest
    #: (under the same write lock) when their size ratio trips; off
    #: leaves compaction to explicit ``compact()`` / ``POST /compact``.
    auto_compact: bool = True
    #: Delta-to-base size ratio that trips compaction (None = the
    #: engine's own ``compaction_ratio``).
    compaction_ratio: float | None = None
    #: Storage backend for saved indexes: pager | sqlite | mmap (see
    #: docs/storage.md).  Only applied when this service shards a plain
    #: engine; a pre-built engine keeps its own backend.
    backend: str = "pager"
    #: Block codec newly built segments are encoded with: none | zlib.
    compression: str = "none"


class QueryService:
    """A concurrent, self-managing serving layer over one engine."""

    def __init__(self, engine: TrexEngine | ShardedEngine,
                 config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        if self.config.shards > 1 or self.config.replicas > 1:
            # (from_engine hands an already sharded engine back as is.)
            engine = ShardedEngine.from_engine(
                engine, self.config.shards,
                policy=self.config.shard_policy,
                shard_deadline=self.config.shard_deadline,
                fail_soft=self.config.fail_soft,
                replicas=self.config.replicas,
                read_policy=self.config.read_policy,
                quorum=self.config.quorum,
                backend=self.config.backend,
                compression=self.config.compression)
        self.engine = engine
        # Serving invariant: evaluation under the read lock must never
        # mutate the catalog; materialization happens under the write
        # lock (warm-up, autopilot) instead.
        engine.auto_materialize = False
        self.lock = ReadWriteLock()
        self.worker_costs = WorkerCostModels()
        self.cache = ResultCache(self.config.cache_capacity)
        self.telemetry = Telemetry()
        self.executor = BoundedExecutor(self.config.workers,
                                        self.config.queue_depth)
        self.recorder = WorkloadRecorder(default_k=self.config.default_k)
        self.autopilot = Autopilot(
            engine, self.lock,
            recorder=self.recorder,
            disk_budget=self.config.autopilot_budget,
            selector=self.config.autopilot_selector,
            interval=self.config.autopilot_interval,
            top_queries=self.config.autopilot_top_queries,
            min_observations=self.config.autopilot_min_observations,
        )
        #: The engine as a list of shards (a plain engine is one
        #: unreplicated shard) — the autopilot's own list, so the groups
        #: guarded below are the ones it installs through.
        self.shards = self.autopilot.shards
        self._closed = threading.Event()
        self.started_at = time.time()
        # Let the runtime sanitizer enforce that engine mutators run
        # under this service's write lock (REPRO_SANITIZE=1 only).
        # Replica-group mutators (leader-first writes, attach/detach)
        # are engine state too: same write-lock contract.
        sanitizer.guard_engine(engine, self.lock)
        for shard in self.shards:
            sanitizer.guard_engine(shard.group, self.lock)
        self.telemetry.register_gauge("queue_depth", self.executor.queue_depth)
        self.telemetry.register_gauge("epoch", lambda: self.engine.epoch)
        if self.config.autopilot_interval is not None:
            self.autopilot.start()

    # ------------------------------------------------------------------
    # Serving entry points
    # ------------------------------------------------------------------
    @sanitizer.serving_handler
    def search(self, query: str, k: int | None = None, method: str = "auto",
               *, mode: str = "nexi", use_cache: bool = True,
               deadline: float | None = None) -> dict:
        """Evaluate *query* on a worker; returns a JSON-ready payload.

        Raises :class:`ServiceOverloadedError` when admission control
        rejects the request and :class:`DeadlineExceededError` when it
        expired waiting for a worker.
        """
        if self._closed.is_set():
            self.telemetry.incr("service.closed_requests")
            raise ServiceClosedError("service is closed")
        self.telemetry.incr("search.requests")
        try:
            # Before the cache, the queue and — above all — the warm-up:
            # a request no engine can answer must not build indexes
            # under the write lock on its way to being rejected.
            check_request(method, mode, k)
        except RetrievalError:
            self.telemetry.incr("search.errors")
            raise
        key = (query, k, method, mode)
        if use_cache:
            payload = self.cache.get(key, self.engine.epoch)
            if payload is not None:
                self.telemetry.incr("search.cache_hits")
                self.telemetry.incr(f"search.method.{payload['method']}")
                self.recorder.record(query, k)
                return dict(payload, cached=True)
            self.telemetry.incr("search.cache_misses")
        if deadline is None:
            deadline = self.config.default_deadline
        try:
            future = self.executor.submit(
                self._search_on_worker, query, k, method, mode, use_cache,
                deadline=deadline)
        except ServiceOverloadedError:
            self.telemetry.incr("search.rejected")
            raise
        try:
            return future.result()
        except DeadlineExceededError:
            self.telemetry.incr("search.deadline_exceeded")
            raise
        except TrexError:
            self.telemetry.incr("search.errors")
            raise

    def _search_on_worker(self, query: str, k: int | None, method: str,
                          mode: str, use_cache: bool) -> dict:
        started = time.perf_counter()
        engine = self.engine
        worker_model = self.worker_costs.current()
        kinds = METHOD_KINDS.get(method)  # era: (); auto: None — no waiting
        with engine.cost_model.scoped(worker_model):
            for attempt in range(3):
                with self.lock.read():
                    translated = engine.translate(query)
                    missing = (engine.missing_segments(translated, kinds,
                                                       mode=mode)
                               if kinds else [])
                    if not missing:
                        epoch = engine.epoch
                        result = engine.evaluate_translated(
                            translated, k, method, mode=mode)
                        payload = self._payload(query, k, method, mode,
                                                result, epoch)
                        break
                if not self.config.materialize_on_demand:
                    kind, term = missing[0][0], missing[0][1]
                    raise MissingIndexError(kind, term=term)
                self._warm(missing)
            else:
                # Ingestion kept invalidating our freshly warmed
                # segments; give up rather than loop forever.
                raise ServiceError(
                    f"could not stabilize indexes for {query!r} "
                    f"(method {method!r}) after 3 attempts")
        elapsed = time.perf_counter() - started
        self.telemetry.incr("search.answered")
        self.telemetry.incr(f"search.method.{payload['method']}")
        self.telemetry.observe("search.latency_seconds", elapsed)
        self.telemetry.observe(f"search.latency_seconds.{payload['method']}",
                               elapsed)
        self.telemetry.observe("search.simulated_cost", payload["cost"])
        # Block-level I/O counters (§3.3's skipped-rows-still-cost and
        # the block-max pruning that now offsets it) per query.
        self.telemetry.incr("blocks.read", payload["blocks_read"])
        self.telemetry.incr("blocks.decoded", payload["blocks_decoded"])
        self.telemetry.incr("blocks.skipped", payload["blocks_skipped"])
        self.telemetry.incr("blocks.entries_decoded",
                            payload["entries_decoded"])
        self.telemetry.incr("rows.skipped", payload["rows_skipped"])
        # WAND pivot telemetry (zero for the doc-ordered strategies).
        if payload["pivot_advances"]:
            self.telemetry.incr("wand.pivot_advances",
                                payload["pivot_advances"])
        if payload["blocks_skipped_shallow"]:
            self.telemetry.incr("wand.blocks_skipped_shallow",
                                payload["blocks_skipped_shallow"])
        if payload["docs_evaluated"]:
            self.telemetry.incr("wand.docs_evaluated",
                                payload["docs_evaluated"])
        if payload["degraded"]:
            self.telemetry.incr("search.degraded")
        shards = payload.get("shards")
        if shards is not None:
            self.telemetry.incr("shards.probed", shards["probed"])
            self.telemetry.incr("shards.pruned", shards["pruned"])
            self.telemetry.incr("shards.timed_out", shards["timed_out"])
            if shards.get("replica_reads"):
                self.telemetry.incr("replica.reads",
                                    shards["replica_reads"])
            if shards.get("replica_failovers"):
                self.telemetry.incr("replica.failovers",
                                    shards["replica_failovers"])
        self.recorder.record(query, k)
        if use_cache:
            self.cache.put((query, k, method, mode), payload["epoch"], payload)
        return dict(payload, cached=False)

    def _warm(self, missing: list[tuple]) -> None:
        """Materialize universal segments for *missing* under the write
        lock (shared across queries; TA/Merge skip within them).  For a
        sharded engine each entry carries its shard index and warms only
        the shard that lacks the segment.  All requests go through the
        build planner, so one shared build (per shard) covers every
        missing segment."""
        started = time.perf_counter()
        with self.lock.write():
            created = self.engine.warm_segments(missing)
        if created:
            self.telemetry.incr("warmup.segments", created)
        report = self.engine.last_build_report
        if report is not None and report.requested:
            self.telemetry.incr("build.segments", report.built)
            self.telemetry.incr("build.scans", report.collection_scans)
            self.telemetry.incr("build.reused", report.reused)
            self.telemetry.incr("build.entries", report.entries)
            self.telemetry.observe("build.latency_seconds",
                                   time.perf_counter() - started)

    def _payload(self, query: str, k: int | None, method: str, mode: str,
                 result: ResultSet, epoch: Any) -> dict:
        summary = self.engine.summary
        hits = []
        for rank, hit in enumerate(result.hits, start=1):
            hits.append({
                "rank": rank,
                "score": round(hit.score, 6),
                "docid": hit.docid,
                "sid": hit.sid,
                "label": summary.label(hit.sid),
                "start": hit.start_pos,
                "end": hit.end_pos,
            })
        stats = result.stats
        payload = {
            "query": query,
            "k": k,
            "mode": mode,
            "requested_method": method,
            "method": stats.method,
            "cost": round(stats.cost, 3),
            "ideal_cost": round(stats.ideal_cost, 3),
            "early_stop": stats.early_stop,
            "rows_skipped": stats.rows_skipped,
            "blocks_read": stats.blocks_read,
            "blocks_decoded": stats.blocks_decoded,
            "blocks_skipped": stats.blocks_skipped,
            "entries_decoded": stats.entries_decoded,
            "pivot_advances": stats.pivot_advances,
            "blocks_skipped_shallow": stats.blocks_skipped_shallow,
            "docs_evaluated": stats.docs_evaluated,
            "degraded": stats.degraded,
            "epoch": epoch,
            "total": len(hits),
            "hits": hits,
        }
        if stats.shard_stats or stats.shards_probed:
            payload["shards"] = {
                "probed": stats.shards_probed,
                "pruned": stats.shards_pruned,
                "timed_out": stats.shards_timed_out,
                "replica_reads": stats.replica_reads,
                "replica_failovers": stats.replica_failovers,
                "per_shard": stats.shard_stats,
            }
        return payload

    # ------------------------------------------------------------------
    def explain(self, query: str, k: int | None = None) -> dict:
        with self.lock.read():
            return self.engine.explain(query, k)

    def _delta_totals(self) -> dict[str, int]:
        """LSM delta statistics summed over every shard's leader."""
        return sum_counters(shard.engine.catalog.delta_snapshot()
                             for shard in self.shards)

    def _replication_totals(self) -> dict[str, int]:
        """Replica-group counters summed over every shard."""
        return sum_counters(shard.group.counters() for shard in self.shards)

    def _emit_replication(self, before: dict[str, int],
                          after: dict[str, int]) -> None:
        """Emit ``replica.*`` counter diffs from a write operation."""
        for key in ("records_shipped", "snapshot_installs",
                    "catchup_records", "faults"):
            diff = after.get(key, 0) - before.get(key, 0)
            if diff:
                self.telemetry.incr(f"replica.{key}", diff)

    @sanitizer.serving_handler
    def ingest(self, xml: str, docid: int | None = None) -> dict:
        """Add one XML document; exclusive against all queries.

        Ingestion appends LSM delta runs to affected segments instead of
        dropping them; with ``auto_compact`` on, segments whose
        delta-to-base ratio trips are folded under the same write lock,
        so queries never observe a half-compacted catalog.
        """
        if self._closed.is_set():
            self.telemetry.incr("service.closed_requests")
            raise ServiceClosedError("service is closed")
        started = time.perf_counter()
        compacted = 0
        compact_elapsed = 0.0
        with self.lock.write():
            before = self._delta_totals()
            replication_before = self._replication_totals()
            document = self.engine.add_document(xml, docid)
            epoch = self.engine.epoch
            appended = self._delta_totals()
            if self.config.auto_compact:
                compact_started = time.perf_counter()
                compacted = self.engine.compact_segments(
                    ratio=self.config.compaction_ratio)
                compact_elapsed = time.perf_counter() - compact_started
            after = self._delta_totals()
            replication_after = self._replication_totals()
        self._emit_replication(replication_before, replication_after)
        self.telemetry.incr("ingest.documents")
        self.telemetry.incr("ingest.delta_runs",
                            appended["deltas_appended"]
                            - before["deltas_appended"])
        self.telemetry.incr("ingest.delta_entries",
                            appended["delta_entries_appended"]
                            - before["delta_entries_appended"])
        if compacted:
            self.telemetry.incr("compaction.runs")
            self.telemetry.incr("compaction.segments", compacted)
            self.telemetry.incr("compaction.delta_runs_folded",
                                after["delta_runs_folded"]
                                - appended["delta_runs_folded"])
            self.telemetry.observe("compaction.latency_seconds",
                                   compact_elapsed)
        self.telemetry.observe("ingest.latency_seconds",
                               time.perf_counter() - started)
        return {"docid": document.docid, "epoch": epoch,
                "delta_runs": after["delta_runs"],
                "segments_compacted": compacted}

    @sanitizer.serving_handler
    def compact(self, *, force: bool = False) -> dict:
        """Fold LSM delta runs into base segments on demand.

        ``force=True`` folds every segment carrying deltas regardless of
        ratio.  Exclusive against queries; compaction never changes
        results, so the epoch (and hence the result cache) is untouched.
        """
        if self._closed.is_set():
            self.telemetry.incr("service.closed_requests")
            raise ServiceClosedError("service is closed")
        started = time.perf_counter()
        with self.lock.write():
            before = self._delta_totals()
            replication_before = self._replication_totals()
            segments = self.engine.compact_segments(
                ratio=self.config.compaction_ratio, force=force)
            after = self._delta_totals()
            replication_after = self._replication_totals()
        self._emit_replication(replication_before, replication_after)
        if segments:
            self.telemetry.incr("compaction.runs")
            self.telemetry.incr("compaction.segments", segments)
            self.telemetry.incr("compaction.delta_runs_folded",
                                after["delta_runs_folded"]
                                - before["delta_runs_folded"])
        self.telemetry.observe("compaction.latency_seconds",
                               time.perf_counter() - started)
        return {"segments_compacted": segments,
                "delta_runs": after["delta_runs"]}

    @sanitizer.serving_handler
    def rebuild_scorer(self) -> dict:
        """Refresh corpus statistics; exclusive against all queries."""
        with self.lock.write():
            self.engine.rebuild_scorer()
            epoch = self.engine.epoch
        self.telemetry.incr("ingest.scorer_rebuilds")
        return {"epoch": epoch}

    @property
    def _distributed(self) -> bool:
        """More than one engine behind this service (shards or replicas)."""
        return len(self.shards) > 1 or len(self.shards[0].group) > 1

    def replica_stats(self) -> dict:
        """Replica-group topology and health (the ``/replicas`` body)."""
        if not self._distributed:
            return {"replicated": False, "groups": []}
        group = self.shards[0].group  # every group is configured alike
        return {
            "replicated": len(group) > 1,
            "replicas": len(group),
            "read_policy": group.read_policy,
            "quorum": group.quorum,
            "counters": self._replication_totals(),
            "groups": [{"shard": shard.index, **shard.group.snapshot()}
                       for shard in self.shards],
        }

    def stats(self) -> dict:
        """One JSON-ready snapshot of every moving part."""
        engine = self.engine
        catalogs = [shard.engine.catalog for shard in self.shards]
        snapshot = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "epoch": engine.epoch,
            "closed": self._closed.is_set(),
            "telemetry": self.telemetry.snapshot(),
            "cache": self.cache.snapshot(),
            "executor": self.executor.snapshot(),
            "lock": self.lock.snapshot(),
            "worker_costs": self.worker_costs.aggregate(),
            "autopilot": self.autopilot.snapshot(),
            "deltas": self._delta_totals(),
            "engine": {
                "documents": len(engine.collection),
                "segments": sum(len(list(catalog.segments()))
                                for catalog in catalogs),
                "catalog_bytes": sum(catalog.total_bytes
                                     for catalog in catalogs),
                "block_size": engine.block_size,
            },
            "block_cache": sum_counters(catalog.cache_stats()
                                        for catalog in catalogs),
            "storage": storage_snapshot(self.shards),
        }
        if self._distributed:
            group = self.shards[0].group
            snapshot["engine"].update(num_shards=len(self.shards),
                                      replicas=len(group),
                                      read_policy=group.read_policy)
            snapshot["shards"] = [shard.snapshot() for shard in self.shards]
            snapshot["replication"] = self._replication_totals()
        return snapshot

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful drain: stop admission, finish queued work, stop the
        autopilot.  Idempotent; an Event (not a plain bool) gives the
        flag cross-thread visibility guarantees."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self.autopilot is not None:
            self.autopilot.stop()
        self.executor.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
_ERROR_STATUS = (
    (ServiceOverloadedError, 429),
    (DeadlineExceededError, 504),
    (ShardTimeoutError, 504),
    (ServiceClosedError, 503),
    (MissingIndexError, 409),
    (TrexError, 400),
)


class TrexHTTPHandler(BaseHTTPRequestHandler):
    """JSON API over a :class:`QueryService` (set as ``server.service``)."""

    server_version = "TReX/1.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: no writer (stdlib
    #: ``send_error`` included) waits on a keep-alive client's delayed ACK.
    disable_nagle_algorithm = True

    # -- helpers -------------------------------------------------------
    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: dict) -> None:
        """The only writer of a reply: status line, headers and body
        reach the socket in one write, whatever the body's size."""
        body = json.dumps(payload).encode("utf-8")
        self.log_request(status)
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.wfile.write(head.encode("latin-1") + body)

    def _send_error_json(self, exc: Exception) -> None:
        """Reply for the exception being handled (call from ``except``)."""
        for exc_type, status in _ERROR_STATUS:
            if isinstance(exc, exc_type):
                self._send_json(status, {"error": type(exc).__name__,
                                         "detail": str(exc)})
                return
        # A bug, not a bad request: count it, log the traceback the way
        # socketserver would have, and keep the connection usable.
        self.service.telemetry.incr("http.internal_errors")
        self.server.handle_error(self.request, self.client_address)
        self._send_json(500, {"error": "InternalError",
                              "detail": type(exc).__name__})

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        if not raw.isdigit():  # "-1" would park this thread in read(-1)
            raise ValueError(f"invalid Content-Length {raw!r}")
        return self.rfile.read(int(raw))

    def _json_object(self, body: bytes) -> dict:
        data = json.loads(body.decode("utf-8") or "{}")
        if not isinstance(data, dict):
            raise ValueError("JSON body must be an object")
        return data

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- search parameter handling ------------------------------------
    @staticmethod
    def _search_args(params: dict) -> dict:
        query = params.get("q") or params.get("query")
        if not query or not isinstance(query, str):
            raise TrexError("missing required string parameter 'q'")
        k = params.get("k")
        if not isinstance(k, (int, str, type(None))):
            raise TrexError("'k' must be an integer or 'all'")
        args = {
            "query": query,
            "k": None if k in (None, "", "all") else int(k),
            "method": params.get("method", "auto"),
            "mode": params.get("mode", "nexi"),
            "use_cache": str(params.get("cache", "1")) not in ("0", "false"),
        }
        check_request(args["method"], args["mode"], args["k"])
        return args

    @staticmethod
    def _flatten_qs(raw: dict[str, list[str]]) -> dict:
        return {name: values[-1] for name, values in raw.items()}

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib signature
        parsed = urlparse(self.path)
        params = self._flatten_qs(parse_qs(parsed.query))
        try:
            if parsed.path == "/healthz":
                self._send_json(200, {"status": "ok",
                                      "epoch": self.service.engine.epoch})
            elif parsed.path == "/stats":
                self._send_json(200, self.service.stats())
            elif parsed.path == "/replicas":
                self._send_json(200, self.service.replica_stats())
            elif parsed.path == "/search":
                args = self._search_args(params)
                self._send_json(200, self.service.search(
                    args["query"], args["k"], args["method"],
                    mode=args["mode"], use_cache=args["use_cache"]))
            elif parsed.path == "/explain":
                query = params.get("q") or params.get("query")
                if not query:
                    raise TrexError("missing required parameter 'q'")
                k = params.get("k")
                self._send_json(200, self.service.explain(
                    query, None if k in (None, "") else int(k)))
            else:
                self._send_json(404, {"error": "NotFound",
                                      "detail": self.path})
        except ValueError as exc:
            self._send_json(400, {"error": "BadRequest", "detail": str(exc)})
        # The HTTP boundary maps every TrexError (ShardTimeoutError
        # included) to a status code; nothing is swallowed.
        # repro: allow[TRX501] HTTP boundary maps exceptions to statuses
        except Exception as exc:  # noqa: BLE001 — mapped to HTTP statuses
            self._send_error_json(exc)

    def do_POST(self) -> None:  # noqa: N802 — stdlib signature
        parsed = urlparse(self.path)
        try:
            body = self._read_body()
            if parsed.path == "/search":
                args = self._search_args(self._json_object(body))
                self._send_json(200, self.service.search(
                    args["query"], args["k"], args["method"],
                    mode=args["mode"], use_cache=args["use_cache"]))
            elif parsed.path == "/ingest":
                content_type = (self.headers.get("Content-Type") or "").lower()
                if "json" in content_type:
                    data = self._json_object(body)
                    xml = data.get("xml", "")
                    docid = data.get("docid")
                else:
                    xml = body.decode("utf-8")
                    docid = None
                if not (isinstance(xml, str)
                        and isinstance(docid, (int, type(None)))):
                    raise ValueError(
                        "'xml' must be a string and 'docid' an integer")
                if not xml.strip():
                    raise TrexError("empty ingest body")
                self._send_json(200, self.service.ingest(xml, docid))
            elif parsed.path == "/compact":
                params = self._json_object(body)
                force = str(params.get("force", "0")) not in ("0", "false",
                                                              "False")
                self._send_json(200, self.service.compact(force=force))
            elif parsed.path == "/autopilot/cycle":
                report = self.service.autopilot.run_cycle(force=True)
                self._send_json(200, self.service.autopilot.snapshot()
                                if report is None else
                                dict(self.service.autopilot.snapshot(),
                                     ran=True))
            else:
                self._send_json(404, {"error": "NotFound",
                                      "detail": self.path})
        except ValueError as exc:  # JSONDecodeError and bad framing too
            self._send_json(400, {"error": "BadRequest", "detail": str(exc)})
        # repro: allow[TRX501] HTTP boundary maps exceptions to statuses
        except Exception as exc:  # noqa: BLE001 — mapped to HTTP statuses
            self._send_error_json(exc)


def make_server(service: QueryService, host: str = "127.0.0.1",
                port: int = 8080, *, verbose: bool = False) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to *service*.

    Each connection is handled on its own thread; handlers call the
    facade, whose executor enforces the real concurrency and admission
    limits.  Call ``serve_forever()`` to run, ``shutdown()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), TrexHTTPHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def install_shutdown_handlers(
        server: ThreadingHTTPServer,
        service: QueryService | None = None, *,
        signals: tuple[signal.Signals, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Callable[[int, Any], None]:
    """Install SIGINT/SIGTERM handlers for a graceful drain.

    On signal, the HTTP server is shut down from a helper thread —
    ``BaseServer.shutdown`` blocks until ``serve_forever`` exits, so
    calling it on the thread that is *running* ``serve_forever`` (the
    main thread receives signals) would deadlock — and the service then
    drains its bounded executor, letting in-flight requests finish
    instead of dying mid-request.  The drain thread is non-daemon so
    the process stays alive until queued work completes.

    Returns the installed handler so tests can invoke it directly.
    Signals can only be bound from the main thread; elsewhere this is
    a no-op that still returns the handler.
    """
    def handler(signum: int, frame: Any) -> None:  # noqa: ARG001 — stdlib signature
        def drain() -> None:
            server.shutdown()
            if service is not None:
                service.close()
        threading.Thread(target=drain, name="trex-graceful-shutdown",
                         daemon=False).start()

    for signum in signals:
        try:
            signal.signal(signum, handler)
        except ValueError:
            pass  # not the main thread: the caller owns signal routing
    return handler


def serve_until_shutdown(server: ThreadingHTTPServer,
                         service: QueryService, *,
                         install_signals: bool = True) -> None:
    """Run ``serve_forever`` until a signal (or KeyboardInterrupt)
    triggers the graceful drain, then close the listening socket."""
    if install_signals:
        install_shutdown_handlers(server, service)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
