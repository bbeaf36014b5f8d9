"""The online self-managing loop: observe traffic, re-select indexes.

The paper's §4 advisor is an offline batch step: given a workload and a
disk budget, measure per-query costs, solve the selection problem,
materialize the winners.  The autopilot turns that into a live control
loop over served traffic:

1. every answered query is recorded into a :class:`WorkloadRecorder`
   (a frequency sketch over recent NEXI strings);
2. periodically — or on demand — a cycle builds a
   :class:`~repro.selfmanage.workload.Workload` from the hottest
   queries and runs :class:`~repro.selfmanage.advisor.IndexAdvisor`
   under the configured disk budget;
3. the chosen query-scoped RPL/ERPL segments are materialized *online*,
   shard by shard (a plain engine is one unreplicated shard, see
   :func:`~repro.shard.shards_of`): the expensive entry computation runs
   under the read lock (concurrent with query traffic), and only the
   install — through the shard's replica group, so followers receive
   what the leader builds — takes a brief write lock, guarded by that
   shard's epoch; segments chosen by a previous cycle but dropped from
   the new plan are retired through the group the same way.

Measurement (step 2) mutates the shard leaders' catalogs with temporary
segments, so it runs under the write lock; bounding the workload to the
top-N hottest queries keeps that pause short.  Everything the cycle
charges goes to a private scoped :class:`CostModel`, so serving-side
cost accounting is never polluted by tuning work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .. import sanitizer
from ..build.planner import BuildPlanner
from ..errors import StorageError, TrexError
from ..retrieval.engine import TrexEngine
from ..selfmanage.advisor import IndexAdvisor
from ..shard import Shard, ShardedEngine
from ..storage.cost import CostModel
from ..selfmanage.workload import Workload, WorkloadQuery
from .locks import ReadWriteLock

__all__ = ["WorkloadRecorder", "Autopilot", "AutopilotReport"]


class WorkloadRecorder:
    """A thread-safe frequency sketch over served (query, k) pairs."""

    __guarded_by__ = {"_lock": ("_counts", "_ks", "total_recorded")}

    def __init__(self, max_distinct: int = 512, default_k: int = 10) -> None:
        self.max_distinct = max_distinct
        self.default_k = default_k
        self._lock = sanitizer.make_lock("workload-recorder")
        self._counts: dict[str, int] = {}
        self._ks: dict[str, int] = {}
        self.total_recorded = 0

    def record(self, nexi: str, k: int | None = None) -> None:
        with self._lock:
            self.total_recorded += 1
            if nexi not in self._counts and len(self._counts) >= self.max_distinct:
                return  # sketch full: keep counting the queries we track
            self._counts[nexi] = self._counts.get(nexi, 0) + 1
            # Remember the smallest k asked for — the most demanding
            # top-k bound a stored RPL prefix must serve.
            k = k if k is not None else self.default_k
            known = self._ks.get(nexi)
            self._ks[nexi] = k if known is None else min(known, k)

    def build_workload(self, top: int = 8) -> Workload | None:
        """A normalized workload of the *top* hottest queries, or None."""
        with self._lock:
            if not self._counts:
                return None
            hottest = sorted(self._counts.items(),
                             key=lambda item: (-item[1], item[0]))[:top]
            total = sum(count for _nexi, count in hottest)
            queries = [
                WorkloadQuery(f"q{index}", nexi, self._ks[nexi], count / total)
                for index, (nexi, count) in enumerate(hottest)
            ]
        return Workload(queries, normalize=True)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "total_recorded": self.total_recorded,
                "distinct_queries": len(self._counts),
            }


@dataclass
class AutopilotReport:
    """What one autopilot cycle decided and did."""

    cycle: int
    workload_size: int
    plan: list[str]
    expected_cost: float
    baseline_cost: float
    materialized: int = 0
    dropped: int = 0
    skipped: int = 0
    materialized_bytes: int = 0
    duration: float = 0.0
    segments: list[str] = field(default_factory=list)


class Autopilot:
    """Background thread running advisor cycles against live traffic."""

    __guarded_by__ = {
        "_cycle_lock": ("cycles", "last_report", "last_error",
                        "_created", "_thread"),
    }

    def __init__(self, engine: TrexEngine | ShardedEngine,
                 lock: ReadWriteLock, *,
                 recorder: WorkloadRecorder | None = None,
                 disk_budget: int = 1 << 20,
                 selector: str = "greedy",
                 interval: float | None = 30.0,
                 top_queries: int = 8,
                 min_observations: int = 8) -> None:
        self.engine = engine
        #: One advisor for the autopilot's lifetime; its shard list is
        #: the topology every cycle (and the serving layer) works on.
        self.advisor = IndexAdvisor(engine)
        self.shards = self.advisor.shards
        self.lock = lock
        self.recorder = recorder if recorder is not None else WorkloadRecorder()
        self.disk_budget = disk_budget
        self.selector = selector
        self.interval = interval
        self.top_queries = top_queries
        self.min_observations = min_observations
        self.cycles = 0
        self.last_report: AutopilotReport | None = None
        self.last_error: str | None = None
        #: (shard index, segment_id) -> (kind, term, scope) for segments
        #: this autopilot created, so later cycles can retire the ones
        #: no longer chosen.
        self._created: dict[tuple[int, int],
                            tuple[str, str, frozenset[int]]] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cycle_lock = sanitizer.make_lock("autopilot-cycle")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.interval is None:
            raise TrexError("autopilot has no interval; call run_cycle() instead")
        with self._cycle_lock:
            if self._thread is not None:
                return
            thread = threading.Thread(target=self._loop,
                                      name="trex-autopilot", daemon=True)
            self._thread = thread
        thread.start()

    def stop(self) -> None:
        self._stop.set()
        # Take the thread handle under the lock but join outside it:
        # the loop thread may be blocked on _cycle_lock inside
        # run_cycle(), and joining while holding it would deadlock.
        with self._cycle_lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_cycle()
            except TrexError as exc:
                # A malformed recorded query or a selector failure must
                # not kill the loop; surface it via /stats instead.
                with self._cycle_lock:
                    self.last_error = str(exc)

    # ------------------------------------------------------------------
    # One tuning cycle
    # ------------------------------------------------------------------
    def run_cycle(self, force: bool = False) -> AutopilotReport | None:
        """Run one measure → select → apply cycle.

        Returns ``None`` when there is not enough observed traffic yet
        (unless *force* is true).  Thread-safe; concurrent calls are
        serialized.
        """
        with self._cycle_lock:
            return self._run_cycle_locked(force)

    def _run_cycle_locked(self, force: bool) -> AutopilotReport | None:
        if not force and self.recorder.total_recorded < self.min_observations:
            return None
        workload = self.recorder.build_workload(self.top_queries)
        if workload is None:
            return None
        started = time.monotonic()
        advisor = self.advisor
        private = CostModel()
        with self.engine.cost_model.scoped(private):
            # Measurement materializes (and drops) temporary segments,
            # so the whole recommend step is exclusive.
            with self.lock.write():
                advisor.invalidate_measurements()
                plan = advisor.recommend(workload, self.disk_budget,
                                         method=self.selector)
                expected = advisor.expected_cost(workload, plan)
                baseline = advisor.baseline_cost(workload)

            report = AutopilotReport(
                cycle=self.cycles + 1,
                workload_size=len(workload),
                plan=plan.describe(),
                expected_cost=expected,
                baseline_cost=baseline,
            )

            # What the plan wants on disk, per shard.
            with self.lock.read():
                targets = advisor.targets(workload, plan)
            for shard in self.shards:
                self._apply_to_shard_locked(
                    shard, report,
                    [(choice.kind, term, sids)
                     for owner, choice, term, sids in targets
                     if owner is shard])

        report.duration = time.monotonic() - started
        self.cycles += 1
        self.last_report = report
        self.last_error = None
        return report

    def _apply_to_shard_locked(
            self, shard: Shard, report: AutopilotReport,
            wanted: list[tuple[str, str, frozenset[int]]]) -> None:
        """Bring one shard's stored segments in line with the plan."""
        engine, group = shard.engine, shard.group
        tag = f"shard{shard.index}:" if len(self.shards) > 1 else ""

        def query_scoped_exists(kind: str, term: str,
                                scope: frozenset[int]) -> bool:
            segment = engine.catalog.find_segment(kind, term, scope)
            return segment is not None and segment.scope is not None

        # Retire our previously-created segments the plan dropped —
        # through the replica group, so followers drop too.
        wanted_keys = set(wanted)
        with self.lock.write():
            for (index, segment_id), key in list(self._created.items()):
                if index != shard.index or key in wanted_keys:
                    continue
                try:
                    group.drop_segment(segment_id)
                    report.dropped += 1
                except StorageError:
                    pass  # already gone (e.g. invalidated by ingestion)
                del self._created[(index, segment_id)]

        # Materialize what is missing: the entries of every absent
        # segment come from ONE shared build over the shard's base
        # indexes (dedup'd by the planner) run concurrently with
        # readers — it reads through a private view and mutates nothing
        # they share; only the installs take a brief write lock.
        planner = BuildPlanner()
        with self.lock.read():
            for kind, term, scope in wanted:
                if query_scoped_exists(kind, term, scope):
                    report.skipped += 1
                    continue
                planner.add(kind, term, scope=scope)
            todo = planner.plan()
            if todo.is_empty:
                return
            epoch = engine.epoch
            batch = engine.compute_entries(todo)
        with self.lock.write():
            for target in todo:
                scope = target.scope if target.scope is not None \
                    else frozenset()
                if (query_scoped_exists(target.kind, target.term, scope)
                        or engine.epoch != epoch):
                    # Someone else stored it meanwhile, or the shard's
                    # collection changed under us and the entries are
                    # stale — the next cycle will retry.
                    report.skipped += 1
                    continue
                # Install through the group: the leader builds the run
                # and its image broadcasts to followers under the
                # leader's segment id.
                segment = group.install_entries(
                    target.kind, target.term, batch.entries[target],
                    scope=target.scope)
                self._created[(shard.index, segment.segment_id)] = (
                    target.kind, target.term, scope)
                report.materialized += 1
                report.materialized_bytes += segment.size_bytes
                report.segments.append(tag + segment.describe())

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        report = self.last_report
        return {
            "running": self._thread is not None,
            "interval": self.interval,
            "disk_budget": self.disk_budget,
            "selector": self.selector,
            "cycles": self.cycles,
            "recorder": self.recorder.snapshot(),
            "created_segments": len(self._created),
            "last_error": self.last_error,
            "last_report": None if report is None else {
                "cycle": report.cycle,
                "workload_size": report.workload_size,
                "materialized": report.materialized,
                "dropped": report.dropped,
                "skipped": report.skipped,
                "materialized_bytes": report.materialized_bytes,
                "expected_cost": round(report.expected_cost, 1),
                "baseline_cost": round(report.baseline_cost, 1),
                "duration": round(report.duration, 4),
                "segments": report.segments,
            },
        }
