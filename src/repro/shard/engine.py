"""ShardedEngine: scatter-gather top-k retrieval over partitioned indexes.

Each shard is a full :class:`~repro.retrieval.engine.TrexEngine` over
its sub-collection — its own summary, Elements/PostingLists indexes and
RPL/ERPL catalog — while scoring state is shared: every shard uses the
*global* corpus statistics, so a given element receives exactly the
score it would in a single monolithic engine.  That is what makes the
golden invariant hold: the sharded top-k is byte-identical to the
single-engine ERA oracle at every k.

Retrieval is scatter-gather.  For forced ERA/Merge (and nexi-mode)
evaluation every shard runs its clause locally and the coordinator
merges the disjoint rankings.  For flat-mode TA with a finite k the
coordinator runs **distributed TA**: one resumable
:class:`~repro.retrieval.ta.TaSession` per shard, advanced batch by
batch round-robin, while a global floor — the k-th largest lower-bound
score across every shard's candidates — is compared against each
shard's remaining upper bound ``B_s = max(threshold_s, max best(c))``.
Once ``floor > B_s`` (strictly, so cross-shard ties survive) no element
shard *s* could still deliver can enter the global top-k, and the shard
is terminated early with its undecoded tail blocks counted as skipped.
See ``docs/sharding.md`` for the soundness argument.

Per-shard deadlines bound scatter latency: a shard that exceeds
``shard_deadline`` either aborts the query (``ShardTimeoutError``) or,
under ``fail_soft``, is dropped and the partial result is tagged
``degraded`` — the serving layer maps that to HTTP 200, not 5xx.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .. import sanitizer
from ..corpus.alias import AliasMapping
from ..corpus.collection import Collection
from ..corpus.document import Document
from ..corpus.tokenizer import Tokenizer
from ..corpus.xmlparser import XMLParser
from ..errors import (
    ReplicaFaultError,
    ReplicaQuorumError,
    ShardTimeoutError,
)
from ..build.batch import BuildReport
from ..nexi.ast import NexiQuery
from ..nexi.parser import parse_nexi
from ..nexi.translate import TranslatedClause, TranslatedQuery
from ..replica.group import ReplicaGroup, ReplicaLease
from ..retrieval.engine import TrexEngine, check_request, choose_available
from ..retrieval.result import EvaluationStats, ResultSet
from ..retrieval.ta import DEFAULT_BATCH_SIZE, TaSession
from ..retrieval.wand import WandSession
from ..scoring.combine import ScoredHit
from ..scoring.scorers import BM25Scorer
from ..scoring.stats import ScoringStats
from ..storage.blocks import DEFAULT_BLOCK_SIZE
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..summary.variants import IncomingSummary
from .partition import make_partitioner, partition_collection

__all__ = ["Shard", "ShardedTranslation", "ShardedEngine", "shards_of",
           "sum_counters", "storage_snapshot"]


@dataclass
class Shard:
    """One partition: its replica group plus cumulative counters.

    ``engine`` is the group's **leader** (replica 0) — translation,
    advising and every leader-first write address it directly, while
    reads are leased from the group.  The counters are mutated by the
    coordinator under its ``_counter_lock`` (declared here because the
    attributes live on this class; the lock lives on
    :class:`ShardedEngine`).
    """

    index: int
    engine: TrexEngine
    group: ReplicaGroup
    probes: int = 0         # queries this shard evaluated work for
    pruned: int = 0         # early terminations by the coordinator
    timeouts: int = 0       # deadline misses
    quorum_losses: int = 0  # reads dropped because no replica was healthy

    __guarded_by__ = {"_counter_lock": ("probes", "pruned", "timeouts",
                                        "quorum_losses")}

    def snapshot(self) -> dict:
        """This shard's telemetry row for ``/stats`` and ``repro stats``
        (the counters are read unlocked: monotone telemetry)."""
        catalog = self.engine.catalog
        deltas = catalog.delta_snapshot()
        return {
            "shard": self.index,
            "documents": len(self.engine.collection),
            "elements_rows": len(self.engine.blocked_elements),
            "segments": len(list(catalog.segments())),
            "catalog_bytes": catalog.total_bytes,
            "epoch": self.engine.epoch,
            "probes": self.probes,
            "pruned": self.pruned,
            "timeouts": self.timeouts,
            "delta_runs": deltas["delta_runs"],
            "delta_bytes": deltas["delta_bytes"],
            "replicas": len(self.group),
            "replicas_healthy": self.group.healthy_count(),
            "quorum_losses": self.quorum_losses,
        }


@dataclass(frozen=True)
class ShardedTranslation:
    """One query translated against the global and every shard summary."""

    source: TranslatedQuery
    per_shard: tuple[TranslatedQuery, ...]

    @property
    def query(self) -> NexiQuery:
        return self.source.query


@dataclass
class _ShardRun:
    """Coordinator-side bookkeeping for one shard's resumable session
    (distributed TA or distributed WAND).

    ``lease`` pins the replica the session reads from; ``clause``,
    ``method`` and ``excluded`` let the coordinator rebuild the session
    on a healthy sibling when the lease's liveness check fails
    mid-query.
    """

    shard: Shard
    session: TaSession | WandSession
    lease: ReplicaLease
    clause: TranslatedClause
    cost: float = 0.0
    ideal_cost: float = 0.0
    entries_decoded: int = 0
    elapsed: float = 0.0
    pruned: bool = False
    timed_out: bool = False
    failed: bool = False      # quorum lost mid-query (fail-soft)
    dispatched: bool = False  # has the session performed a sorted access?
    method: str = "ta"
    excluded: set[int] = field(default_factory=set)

    def account(self, spent: Any, seconds: float) -> None:
        self.cost += spent.total_cost
        self.ideal_cost += spent.ideal_cost
        self.entries_decoded += spent.entries_decoded
        self.elapsed += seconds


class ShardedEngine:
    """Coordinator over N shard-local :class:`TrexEngine` instances.

    Implements the same evaluation surface the serving layer consumes
    (``translate`` / ``evaluate_translated`` / ``missing_segments`` /
    ``warm_segments`` / ``add_document`` / ``epoch``), so a
    :class:`~repro.service.server.QueryService` can hold either engine
    kind.  ``epoch`` is a *tuple* of per-shard epochs: ingesting into
    one shard changes only that component, which is exactly what the
    result cache needs to invalidate per shard.
    """

    def __init__(self, collection: Collection, num_shards: int, *,
                 policy: str = "hash",
                 alias: AliasMapping | None = None,
                 summary_factory: Callable[[Collection], Any] | None = None,
                 tokenizer: Tokenizer | None = None,
                 scorer: Any = None,
                 cost_model: CostModel | None = None,
                 support_weight: float = 0.5,
                 auto_materialize: bool = True,
                 fragment_size: int = 64,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 shard_deadline: float | None = None,
                 fail_soft: bool = True,
                 ta_batch_size: int = DEFAULT_BATCH_SIZE,
                 replicas: int = 1,
                 read_policy: str = "round_robin",
                 quorum: int = 1,
                 backend: str = "pager",
                 compression: str = "none") -> None:
        if ta_batch_size < 1:
            raise ValueError("ta_batch_size must be at least 1")
        self.collection = collection
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.partitioner = make_partitioner(policy, num_shards, collection)
        self.shard_deadline = shard_deadline
        self.fail_soft = fail_soft
        self.ta_batch_size = ta_batch_size
        self.block_size = block_size
        self.backend = backend
        self.compression = compression
        self.support_weight = support_weight
        self.num_replicas = max(1, replicas)
        self.read_policy = read_policy
        self.quorum = quorum
        self._auto_materialize = auto_materialize
        self._counter_lock = sanitizer.make_lock("shard-counters")
        #: Merged per-shard report of the most recent warm-up run.
        self.last_build_report: BuildReport | None = None

        if summary_factory is None:
            resolved_alias = alias if alias is not None else AliasMapping.identity()
            summary_factory = lambda c: IncomingSummary(c, alias=resolved_alias)
        self._summary_factory = summary_factory
        #: Global summary — used to relabel shard-local hits with
        #: collection-wide sids (labels in payloads, explain output).
        self.summary = summary_factory(collection)

        # One scorer over GLOBAL statistics, shared by every shard: the
        # prerequisite for byte-identical scores across shard counts.
        if scorer is None:
            scorer = BM25Scorer(ScoringStats.from_collection(collection))
        self.scorer = scorer

        self.shards: list[Shard] = []
        for index, sub in enumerate(
                partition_collection(collection, self.partitioner)):
            engines: list[TrexEngine] = []
            for rank in range(self.num_replicas):
                # Each replica owns its OWN copy of the sub-collection
                # (same Document objects, separate stats/tables), so a
                # leader ingest does not leak into follower state: the
                # follower only changes when a shipped record applies.
                replica_collection = (
                    sub if rank == 0 else
                    Collection.from_documents(sub,
                                              name=f"{sub.name}.r{rank}"))
                engines.append(TrexEngine(
                    replica_collection, summary_factory(replica_collection),
                    scorer=self.scorer, tokenizer=self.tokenizer,
                    cost_model=self.cost_model,
                    support_weight=support_weight,
                    auto_materialize=auto_materialize,
                    fragment_size=fragment_size,
                    block_size=block_size, ta_batch_size=ta_batch_size,
                    backend=backend, compression=compression))
            group = ReplicaGroup(engines, name=f"shard{index}",
                                 read_policy=read_policy, quorum=quorum,
                                 read_deadline=shard_deadline)
            self.shards.append(Shard(index=index, engine=engines[0],
                                     group=group))

    @classmethod
    def from_engine(cls, engine: TrexEngine, num_shards: int, *,
                    policy: str = "hash",
                    shard_deadline: float | None = None,
                    fail_soft: bool = True,
                    replicas: int = 1,
                    read_policy: str = "round_robin",
                    quorum: int = 1,
                    backend: str | None = None,
                    compression: str | None = None) -> "ShardedEngine":
        """Re-partition an existing engine's collection.

        Reuses the engine's tokenizer, scorer, cost model and summary
        alias (shard summaries default to incoming summaries; build a
        ShardedEngine directly with ``summary_factory`` for other
        summary variants).  An engine that is already sharded is
        returned as it is — it keeps its own partition, replicas and
        backend.
        """
        if isinstance(engine, cls):
            return engine
        return cls(engine.collection, num_shards, policy=policy,
                   alias=getattr(engine.summary, "alias", None),
                   tokenizer=engine.tokenizer, scorer=engine.scorer,
                   cost_model=engine.cost_model,
                   support_weight=engine.support_weight,
                   auto_materialize=engine.auto_materialize,
                   block_size=engine.block_size,
                   shard_deadline=shard_deadline, fail_soft=fail_soft,
                   replicas=replicas, read_policy=read_policy,
                   quorum=quorum,
                   backend=engine.backend if backend is None else backend,
                   compression=(engine.compression if compression is None
                                else compression))

    # ------------------------------------------------------------------
    # Engine-surface properties
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def epoch(self) -> tuple[int, ...]:
        """Per-shard data-version vector (see class docstring)."""
        return tuple(shard.engine.epoch for shard in self.shards)

    @property
    def auto_materialize(self) -> bool:
        return self._auto_materialize

    @auto_materialize.setter
    def auto_materialize(self, value: bool) -> None:
        self._auto_materialize = value
        for shard in self.shards:
            for replica in shard.group.replicas:
                replica.engine.auto_materialize = value

    @property
    def catalog_bytes(self) -> int:
        return sum(shard.engine.catalog.total_bytes for shard in self.shards)

    def segment_count(self) -> int:
        return sum(len(list(shard.engine.catalog.segments()))
                   for shard in self.shards)

    def use_page_cache(self, cache: PageCache) -> None:
        for shard in self.shards:
            for replica in shard.group.replicas:
                replica.engine.use_page_cache(cache)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, query: str | NexiQuery, *,
                  vague: bool = True) -> ShardedTranslation:
        if isinstance(query, str):
            query = parse_nexi(query)
        source = None
        per_shard = []
        with self.cost_model.muted():
            from ..nexi.translate import translate_query
            source = translate_query(query, self.summary, self.tokenizer,
                                     vague=vague)
        for shard in self.shards:
            per_shard.append(shard.engine.translate(query, vague=vague))
        return ShardedTranslation(source=source, per_shard=tuple(per_shard))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: str | NexiQuery, k: int | None = None,
                 method: str = "auto", *, vague: bool = True,
                 mode: str = "nexi", require_phrases: bool = False) -> ResultSet:
        translated = self.translate(query, vague=vague)
        return self.evaluate_translated(translated, k, method, mode=mode,
                                        require_phrases=require_phrases)

    def evaluate_translated(self, translated: ShardedTranslation,
                            k: int | None = None, method: str = "auto", *,
                            mode: str = "nexi",
                            require_phrases: bool = False) -> ResultSet:
        check_request(method, mode, k)
        if method == "auto":
            method = self.choose_method(translated, k, mode)
        if method in ("ta", "wand") and k is not None and mode == "flat":
            return self._scatter_gather_ta(translated, k, method)
        return self._scatter_gather_full(translated, k, method, mode,
                                         require_phrases)

    # -- full per-shard evaluation (ERA / Merge / nexi mode) ------------
    def _scatter_gather_full(self, translated: ShardedTranslation,
                             k: int | None, method: str, mode: str,
                             require_phrases: bool) -> ResultSet:
        total = EvaluationStats(method=method)
        hits: list[ScoredHit] = []
        events = {"read": 0, "failover": 0}
        on_event = self._event_recorder(events)
        quorum_lost = 0
        for shard, local in zip(self.shards, translated.per_shard):
            started = time.perf_counter()
            try:
                result = shard.group.run_read(
                    lambda engine, local=local: engine.evaluate_translated(
                        local, k, method, mode=mode,
                        require_phrases=require_phrases),
                    on_event=on_event)
            except ReplicaQuorumError as error:
                self._note_quorum_loss(shard, error)
                quorum_lost += 1
                total.degraded = True
                total.shard_stats.append(self._shard_row(
                    shard, cost=0.0, hits=0,
                    elapsed=time.perf_counter() - started,
                    entries_decoded=0, failed=True))
                continue
            elapsed = time.perf_counter() - started
            if (self.shard_deadline is not None
                    and elapsed > self.shard_deadline):
                self._note_timeout(shard, elapsed)
                total.shards_timed_out += 1
                total.degraded = True
                total.shard_stats.append(self._shard_row(
                    shard, cost=result.stats.cost, hits=0, elapsed=elapsed,
                    entries_decoded=result.stats.entries_decoded,
                    timed_out=True))
                continue
            with self._counter_lock:
                shard.probes += 1
            total.merge_with(result.stats)
            total.shard_stats.append(self._shard_row(
                shard, cost=result.stats.cost, hits=len(result.hits),
                elapsed=elapsed,
                entries_decoded=result.stats.entries_decoded))
            hits.extend(self._relabel(result.hits))
        total.shards_probed = (len(self.shards) - total.shards_timed_out
                               - quorum_lost)
        total.replica_reads = events["read"]
        total.replica_failovers = events["failover"]
        self.cost_model.sort(len(hits))
        hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))
        if k is not None:
            hits = hits[:k]
        return ResultSet(hits=hits, stats=total, k=k)

    # -- distributed TA / WAND (flat mode, finite k) --------------------
    def _ta_session(self, engine: TrexEngine, clause: TranslatedClause,
                    k: int) -> TaSession:
        """One resumable TA session over *engine*'s RPL catalog."""
        segments = engine.segments_for(clause, "rpl")
        return TaSession(engine.catalog, segments, clause.sids, k,
                         self.cost_model.resolve(),
                         dict(clause.term_weights),
                         batch_size=self.ta_batch_size)

    def _wand_session(self, engine: TrexEngine, clause: TranslatedClause,
                      k: int) -> WandSession:
        """One resumable WAND session over *engine*'s ERPL catalog,
        with resident RPL block-max headers as static bounds."""
        segments = engine.segments_for(clause, "erpl")
        return WandSession(engine.catalog, segments, clause.sids, k,
                           self.cost_model.resolve(),
                           dict(clause.term_weights),
                           bound_segments=engine.bound_segments_for(clause),
                           batch_size=self.ta_batch_size)

    def _session_for(self, method: str, engine: TrexEngine,
                     clause: TranslatedClause,
                     k: int) -> TaSession | WandSession:
        if method == "wand":
            return self._wand_session(engine, clause, k)
        return self._ta_session(engine, clause, k)

    def _lease_session(self, shard: Shard, clause: TranslatedClause, k: int,
                       method: str, excluded: set[int],
                       on_event: Callable[[str], None],
                       ) -> tuple[ReplicaLease, TaSession | WandSession]:
        """Lease a replica of *shard* outside *excluded* and open its
        session, moving on to the next sibling (and adding the dead one
        to *excluded*) when a lease faults before the first access.
        Raises ``ReplicaQuorumError`` once no sibling is admissible."""
        while True:
            lease = shard.group.lease(exclude=frozenset(excluded),
                                      on_event=on_event)
            try:
                lease.check()
                return lease, self._session_for(method, lease.engine,
                                                clause, k)
            except ReplicaFaultError:
                lease.fail()
                excluded.add(lease.replica.index)
                shard.group.note_failover(on_event)
            # repro: allow[TRX501] lease boundary releases then re-raises
            except BaseException:
                lease.release()
                raise

    def _start_ta_run(self, shard: Shard, clause: TranslatedClause, k: int,
                      method: str,
                      on_event: Callable[[str], None]) -> _ShardRun:
        """The first lease is a failover with nothing excluded yet."""
        excluded: set[int] = set()
        lease, session = self._lease_session(shard, clause, k, method,
                                             excluded, on_event)
        return _ShardRun(shard=shard, session=session, lease=lease,
                         clause=clause, method=method, excluded=excluded)

    def _ta_failover(self, run: _ShardRun, k: int,
                     on_event: Callable[[str], None]) -> bool:
        """Move *run* to a healthy sibling after a mid-query fault.

        The replacement session restarts from depth zero on the sibling
        (sessions are replica-local); since every replica is
        byte-identical the rebuilt session converges to the same top-k.
        Returns False when no sibling is admissible — the shard is then
        dropped (fail-soft) or the quorum error propagates.
        """
        run.lease.fail()
        run.excluded.add(run.lease.replica.index)
        run.shard.group.note_failover(on_event)
        try:
            run.lease, run.session = self._lease_session(
                run.shard, run.clause, k, run.method, run.excluded, on_event)
        except ReplicaQuorumError as error:
            self._note_quorum_loss(run.shard, error)
            run.failed = True
            run.session.prune()
            return False
        return True

    def _scatter_gather_ta(self, translated: ShardedTranslation, k: int,
                           method: str) -> ResultSet:
        overall = self.cost_model.snapshot()
        events = {"read": 0, "failover": 0}
        on_event = self._event_recorder(events)
        runs: list[_ShardRun] = []
        empty_rows = []
        for shard, local in zip(self.shards, translated.per_shard):
            clause = shard.engine.flat_clause(local)
            if not clause.sids or not clause.terms:
                empty_rows.append(self._shard_row(shard, cost=0.0, hits=0,
                                                  elapsed=0.0,
                                                  entries_decoded=0))
                continue
            try:
                run = self._start_ta_run(shard, clause, k, method, on_event)
            except ReplicaQuorumError as error:
                self._note_quorum_loss(shard, error)
                empty_rows.append(self._shard_row(shard, cost=0.0, hits=0,
                                                  elapsed=0.0,
                                                  entries_decoded=0,
                                                  failed=True))
                continue
            runs.append(run)
            with self._counter_lock:
                shard.probes += 1

        # Shards ordered by descending static upper bound (the block-max
        # threshold before any sorted access): the high-bound shards run
        # first and raise the global floor, so a low-bound shard can be
        # pruned before its FIRST dispatch — it never decodes a block.
        active = sorted(runs, key=lambda run: -run.session.threshold())
        while active:
            survivors: list[_ShardRun] = []
            for run in active:
                # Earlier shards in this round may have raised the floor
                # past this shard's bound: refresh before every dispatch
                # (not only the first), so a batch finished moments ago
                # on a sibling shard can prune this one immediately.
                floor = self._global_floor(runs, k)
                if isinstance(run.session, WandSession):
                    # The global k-th floor feeds the shard-local pivot
                    # bound: WAND skips past documents no shard-local
                    # heap entry could beat *globally*.
                    run.session.external_floor = floor
                snapshot = self.cost_model.snapshot()
                started = time.perf_counter()
                if run.session.can_prune(floor):
                    # No element this shard could still deliver can make
                    # the global top-k: terminate it early.
                    run.session.prune()
                    # _ShardRun.pruned is coordinator-local bookkeeping,
                    # not the Shard counter of the same name.
                    # repro: allow[TRX101] name collision with Shard.pruned
                    run.pruned = True
                    with self._counter_lock:
                        run.shard.pruned += 1
                    run.account(self.cost_model.since(snapshot),
                                time.perf_counter() - started)
                    continue
                run.dispatched = True
                try:
                    run.lease.check()
                    alive = run.session.step()
                except ReplicaFaultError:
                    run.account(self.cost_model.since(snapshot),
                                time.perf_counter() - started)
                    if self._ta_failover(run, k, on_event):
                        survivors.append(run)
                    continue
                run.account(self.cost_model.since(snapshot),
                            time.perf_counter() - started)
                if (self.shard_deadline is not None
                        and run.elapsed > self.shard_deadline):
                    self._note_timeout(run.shard, run.elapsed)
                    run.timed_out = True
                    run.session.prune()
                    continue
                if alive:
                    survivors.append(run)
            active = survivors

        hits: list[ScoredHit] = []
        total = EvaluationStats(method=method)
        for run in runs:
            if not run.failed:
                run.lease.succeed(elapsed=run.elapsed)
            if not (run.pruned or run.timed_out or run.failed):
                hits.extend(self._relabel(run.session.finalize()))
            run.session.stats_into(total)
            total.candidates += len(run.session.candidates)
            total.early_stop = (total.early_stop or run.session.early_stop
                                or run.pruned)
            total.shard_stats.append(self._shard_row(
                run.shard, cost=run.cost, hits=None, elapsed=run.elapsed,
                entries_decoded=run.entries_decoded,
                pruned=run.pruned, timed_out=run.timed_out,
                early_stop=run.session.early_stop,
                depth=sum(it.depth for it in run.session.iterators.values()),
                failed=run.failed))
        total.shard_stats.extend(empty_rows)
        total.shards_probed = len(runs)
        total.shards_pruned = sum(1 for run in runs if run.pruned)
        total.shards_timed_out = sum(1 for run in runs if run.timed_out)
        quorum_lost = sum(1 for run in runs if run.failed)
        quorum_lost += sum(1 for row in empty_rows if row.get("failed"))
        total.degraded = total.shards_timed_out > 0 or quorum_lost > 0
        total.replica_reads = events["read"]
        total.replica_failovers = events["failover"]

        self.cost_model.sort(len(hits))
        hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))
        hits = hits[:k]

        spent = self.cost_model.since(overall)
        total.cost = spent.total_cost
        total.ideal_cost = spent.ideal_cost
        total.record_block_io(spent)
        return ResultSet(hits=hits, stats=total, k=k)

    def _global_floor(self, runs: list[_ShardRun], k: int) -> float:
        """k-th largest lower-bound (worst) score across every shard's
        current candidates — a sound lower bound on the true global
        k-th-best score (each heap entry is a real element whose final
        score is at least its worst score)."""
        worst_scores: list[float] = []
        for run in runs:
            worst_scores.extend(run.session.heap.scores())
        self.cost_model.compare(max(len(worst_scores), 1))
        if len(worst_scores) < k:
            return float("-inf")
        worst_scores.sort(reverse=True)
        return worst_scores[k - 1]

    def _note_timeout(self, shard: Shard, elapsed: float) -> None:
        with self._counter_lock:
            shard.timeouts += 1
        if not self.fail_soft:
            raise ShardTimeoutError(shard.index, elapsed, self.shard_deadline)

    def _note_quorum_loss(self, shard: Shard,
                          error: ReplicaQuorumError) -> None:
        """A read found no admissible replica: count it, and either drop
        the shard (fail-soft partial result) or abort the query."""
        with self._counter_lock:
            shard.quorum_losses += 1
        if not self.fail_soft:
            raise error

    @staticmethod
    def _event_recorder(events: dict[str, int]) -> Callable[[str], None]:
        def record(kind: str) -> None:
            events[kind] = events.get(kind, 0) + 1
        return record

    def _relabel(self, hits: list[ScoredHit]) -> list[ScoredHit]:
        """Re-key shard-local hits with global-summary sids."""
        return [ScoredHit(hit.score, hit.docid, hit.end_pos,
                          sid=self.summary.sid_of(hit.docid, hit.end_pos),
                          length=hit.length)
                for hit in hits]

    def _shard_row(self, shard: Shard, *, cost: float, hits: int | None,
                   elapsed: float,
                   entries_decoded: int, pruned: bool = False,
                   timed_out: bool = False, early_stop: bool = False,
                   depth: int | None = None,
                   failed: bool = False) -> dict:
        row = {
            "shard": shard.index,
            "cost": round(cost, 3),
            "entries_decoded": entries_decoded,
            "elapsed": round(elapsed, 6),
            "pruned": pruned,
            "timed_out": timed_out,
        }
        if hits is not None:
            row["hits"] = hits
        if early_stop:
            row["early_stop"] = True
        if depth is not None:
            row["depth"] = depth
        if failed:
            row["failed"] = True
        return row

    # ------------------------------------------------------------------
    # Strategy selection and serving-layer surface
    # ------------------------------------------------------------------
    def choose_method(self, translated: ShardedTranslation,
                      k: int | None, mode: str = "nexi") -> str:
        return choose_available(self, translated, translated.source.clauses,
                                k, mode)

    def missing_segments(self, translated: ShardedTranslation,
                         kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                         mode: str = "nexi"
                         ) -> list[tuple[str, str, frozenset[int], int]]:
        """Missing ``(kind, term, sids, shard_index)`` quadruples across
        every shard (sids are shard-summary-local)."""
        missing: list[tuple[str, str, frozenset[int], int]] = []
        for shard, local in zip(self.shards, translated.per_shard):
            for kind, term, sids in shard.engine.missing_segments(
                    local, kinds, mode=mode):
                missing.append((kind, term, sids, shard.index))
        return missing

    @sanitizer.mutates_engine_state
    def warm_segments(self, missing: list[tuple]) -> int:
        """Materialize missing segments, batched per owning shard.

        Requests are grouped so each shard engine receives **one**
        warm-up call covering all of its targets — one shared build
        per shard instead of one ERA run per ``(kind, term)``.
        """
        by_shard: dict[int | None, list[tuple]] = {}
        for item in missing:
            shard_index = item[3] if len(item) > 3 else None
            by_shard.setdefault(shard_index, []).append(item[:3])
        created = 0
        merged = BuildReport()
        for shard_index in sorted(by_shard,
                                  key=lambda i: (i is None, i or 0)):
            requests = by_shard[shard_index]
            if shard_index is not None:
                # sids in a quadruple are local to the owning shard.
                group = self.shards[shard_index].group
                created += group.warm_segments(requests)
                if group.leader.engine.last_build_report is not None:
                    merged.merge(group.leader.engine.last_build_report)
            else:
                # No owner recorded: warm the terms everywhere (sids
                # from an unknown summary cannot be trusted across
                # shards).
                stripped = [(kind, term) for kind, term, *_rest in requests]
                for shard in self.shards:
                    created += shard.group.warm_segments(stripped)
                    if shard.engine.last_build_report is not None:
                        merged.merge(shard.engine.last_build_report)
        self.last_build_report = merged
        return created

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    @sanitizer.mutates_engine_state
    def add_document(self, source: str | Document,
                     docid: int | None = None) -> Document:
        """Parse (if needed), register globally, and route to one shard.

        Only the owning shard's tables and epoch change — every other
        shard's epoch component stays put, so cached results scoped to
        untouched shards stay valid under a per-shard-epoch cache key.
        """
        if isinstance(source, str):
            parser = XMLParser(self.tokenizer)
            next_id = docid if docid is not None else self.collection.next_docid
            document = parser.parse(source, next_id)
        else:
            document = source
        with self.cost_model.muted():
            self.collection.add(document)
            self.summary.extend(document)
        shard = self.shards[self.partitioner.shard_of(document.docid)]
        shard.group.add_document(document)
        return document

    @sanitizer.mutates_engine_state
    def compact_segments(self, *, ratio: float | None = None,
                         force: bool = False) -> int:
        """Fold LSM delta runs on every shard; returns segments compacted.

        Leader-first per group: each shard's leader compacts, then the
        compacted base images ship to followers as snapshot installs.
        """
        return sum(shard.group.compact_segments(ratio=ratio, force=force)
                   for shard in self.shards)

    @sanitizer.mutates_engine_state
    def rebuild_scorer(self, scorer_factory: Callable[[ScoringStats], Any]
                       | None = None) -> None:
        """Refresh *global* corpus statistics and reset every shard."""
        with self.cost_model.muted():
            stats = ScoringStats.from_collection(self.collection)
            if scorer_factory is None:
                self.scorer = BM25Scorer(stats)
            else:
                self.scorer = scorer_factory(stats)
            for shard in self.shards:
                for replica in shard.group.replicas:
                    engine = replica.engine
                    engine.scorer = self.scorer
                    for segment in list(engine.catalog.segments()):
                        engine.catalog.drop_segment(segment.segment_id)
                    engine.epoch += 1
                # Every replica was reset in lockstep: restart the
                # replication log from a clean sync point.
                shard.group.reset_replication()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, query: str | NexiQuery, k: int | None = None, *,
                vague: bool = True) -> dict:
        with self.cost_model.muted():
            translated = self.translate(query, vague=vague)
            return {
                "query": str(translated.query),
                "target_pattern": str(translated.source.target_pattern),
                "num_sids": translated.source.num_sids,
                "num_terms": translated.source.num_terms,
                "partition": self.partitioner.describe(),
                "chosen_method": self.choose_method(translated, k),
                "shards": [
                    {
                        "shard": shard.index,
                        "documents": len(shard.engine.collection),
                        "num_sids": local.num_sids,
                        "num_terms": local.num_terms,
                        "local_method": shard.engine.choose_method(local, k),
                    }
                    for shard, local in zip(self.shards,
                                            translated.per_shard)
                ],
            }

    def shard_snapshot(self) -> list[dict]:
        """Per-shard telemetry rows for ``/stats`` and ``repro stats``."""
        return [shard.snapshot() for shard in self.shards]

    # ------------------------------------------------------------------
    # Index persistence (per-shard subdirectories)
    # ------------------------------------------------------------------
    def save_indexes(self, directory: str) -> None:
        """Persist every shard's index tables under ``shard{i}/``."""
        os.makedirs(directory, exist_ok=True)
        for shard in self.shards:
            shard.engine.save_indexes(
                os.path.join(directory, f"shard{shard.index}"))

    @sanitizer.mutates_engine_state
    def load_indexes(self, directory: str) -> None:
        """Replace every shard's index tables from a saved directory.

        Every replica of a shard loads the same ``shard{i}/`` image, so
        the group is byte-identical afterwards and the replication log
        restarts from a clean sync point.
        """
        for shard in self.shards:
            path = os.path.join(directory, f"shard{shard.index}")
            for replica in shard.group.replicas:
                replica.engine.load_indexes(path)
            shard.group.reset_replication()
        if self.shards:
            # The on-disk image decides backend and codec; adopt what
            # the shard catalogs detected so describe()/stats agree.
            self.backend = self.shards[0].engine.backend
            self.compression = self.shards[0].engine.compression

    def describe(self) -> dict[str, object]:
        return {
            "collection": self.collection.describe(),
            "partition": self.partitioner.describe(),
            "fail_soft": self.fail_soft,
            "shard_deadline": self.shard_deadline,
            "catalog_bytes": self.catalog_bytes,
            "replicas": self.num_replicas,
            "read_policy": self.read_policy,
            "quorum": self.quorum,
            "storage": storage_snapshot(self.shards),
            "shards": self.shard_snapshot(),
        }


def shards_of(engine: TrexEngine | ShardedEngine) -> list[Shard]:
    """The engine's shards — the one place above the engine classes
    that looks at the engine's kind.

    A plain :class:`TrexEngine` is the one-shard, one-replica case: it
    is wrapped (nothing is rebuilt or copied) as shard 0 behind a
    follower-less replica group, so the advisor, the autopilot and the
    serving layer are written once against this list.
    """
    if isinstance(engine, ShardedEngine):
        return engine.shards
    return [Shard(index=0, engine=engine, group=ReplicaGroup([engine]))]


def sum_counters(rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Key-wise sum of per-shard counter snapshots."""
    totals: dict[str, Any] = {}
    for row in rows:
        for key, value in row.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def storage_snapshot(shards: list[Shard]) -> dict[str, object]:
    """Backend/compression accounting aggregated across *shards*.

    Every shard (and every replica) runs the same backend and codec, so
    the name fields come from shard 0 and only the byte counters are
    summed."""
    snapshots = [shard.engine.catalog.storage_snapshot() for shard in shards]
    totals = sum_counters(
        {key: snap[key] for key in ("size_bytes", "flat_bytes",
                                    "compressed_segments")}
        for snap in snapshots)
    kinds: dict[str, dict[str, int]] = {}
    for snap in snapshots:
        for kind, row in snap["kinds"].items():  # type: ignore[attr-defined]
            kinds[kind] = sum_counters([kinds.get(kind, {}), row])
    ratio = (totals["size_bytes"] / totals["flat_bytes"]
             if totals["flat_bytes"] else 1.0)
    return {
        "backend": snapshots[0]["backend"],
        "compression": snapshots[0]["compression"],
        "compressed_segments": totals["compressed_segments"],
        "kinds": kinds,
        "size_bytes": totals["size_bytes"],
        "flat_bytes": totals["flat_bytes"],
        "compression_ratio": round(ratio, 4),
    }
