"""ShardedEngine: scatter-gather top-k retrieval over partitioned indexes.

Each shard is a full :class:`~repro.retrieval.engine.TrexEngine` over
its sub-collection — its own summary, Elements/PostingLists indexes and
RPL/ERPL catalog — while scoring state is shared: every shard uses the
*global* corpus statistics, so a given element receives exactly the
score it would in a single monolithic engine.  That is what makes the
golden invariant hold: the sharded top-k is byte-identical to the
single-engine ERA oracle at every k.

Retrieval is one scatter-gather loop.  Every shard gets one session
(:meth:`~repro.retrieval.engine.TrexEngine.open_session`) on a leased
replica, and the coordinator steps the live sessions round-robin.  For
flat-mode TA and WAND with a finite k the session is resumable
(:class:`~repro.retrieval.ta.TaSession` /
:class:`~repro.retrieval.wand.WandSession`) and the coordinator runs
**distributed TA/WAND**: a global floor — the k-th largest lower-bound
score across every shard's candidates — is compared against each
shard's remaining upper bound ``B_s = max(threshold_s, max best(c))``.
Once ``floor > B_s`` (strictly, so cross-shard ties survive) no element
shard *s* could still deliver can enter the global top-k, and the shard
is terminated early with its undecoded tail blocks counted as skipped.
Every other request (ERA, Merge, nexi mode, ``k=None``) is a one-shot
session: its single step is the shard's whole evaluation, and it takes
no part in the floor.  See ``docs/sharding.md`` for the soundness
argument.

Per-shard deadlines bound scatter latency: a shard that exceeds
``shard_deadline`` either aborts the query (``ShardTimeoutError``) or,
under ``fail_soft``, is dropped and the partial result is tagged
``degraded`` — the serving layer maps that to HTTP 200, not 5xx.  A
replica fault mid-query rebuilds the shard's session on a sibling
through :meth:`~repro.replica.group.ReplicaGroup.open_read`, the one
failover loop.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
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
from ..nexi.translate import (TranslatedClause, TranslatedQuery,
                              translate_query)
from ..replica.group import ReplicaGroup, ReplicaLease
from ..retrieval.engine import (
    MODES,
    QueryPlan,
    Session,
    TrexEngine,
    check_request,
    choose_available,
    explain_plans,
)
from ..retrieval.result import EvaluationStats, ResultSet
from ..retrieval.ta import DEFAULT_BATCH_SIZE
from ..scoring.combine import ScoredHit
from ..scoring.scorers import BM25Scorer
from ..scoring.stats import ScoringStats
from ..storage.blocks import DEFAULT_BLOCK_SIZE
from ..storage.cost import CostModel
from ..summary.variants import IncomingSummary
from .partition import Partitioner, make_partitioner, partition_collection

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
    probes: int = 0         # queries that opened a run on this shard
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


@dataclass
class _ShardRun:
    """Coordinator-side bookkeeping for one shard's session.

    ``lease`` pins the replica the session reads from; ``plan`` is what
    the session runs, on whichever replica's engine, and ``excluded``
    collects the replicas that faulted under this run, so a mid-query
    rebuild lands on a healthy sibling.  ``outcome`` stays empty while
    the session's hits count and otherwise says why they do not:
    ``pruned`` (the global floor ruled the shard out), ``timed_out`` or
    ``failed`` (quorum lost mid-query, fail-soft).
    """

    shard: Shard
    plan: QueryPlan
    lease: ReplicaLease
    session: Session
    excluded: set[int]
    outcome: str = ""
    cost: float = 0.0
    entries_decoded: int = 0
    elapsed: float = 0.0

    def account(self, spent: Any, seconds: float) -> None:
        self.cost += spent.total_cost
        self.entries_decoded += spent.entries_decoded
        self.elapsed += seconds


class ShardedEngine:
    """Coordinator over N shard-local :class:`TrexEngine` instances.

    Implements the evaluation and write surface the serving layer
    consumes (``translate`` / ``evaluate_translated`` /
    ``missing_segments`` / ``warm_segments`` / ``add_document`` /
    ``compact_segments`` / ``rebuild_scorer`` / ``epoch``); a
    :class:`~repro.service.server.QueryService` holds one for every
    topology, and a plain engine reaches compaction and rescoring
    through ``from_engine(engine, 1)``.  At one shard there is no
    partition: shard 0's engine holds the collection itself, and its
    summary and scorer are the coordinator's global ones
    (:meth:`from_engine` adopts a built engine that way).
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
        partitioner = make_partitioner(policy, num_shards, collection)
        subs = ([collection] if num_shards == 1 else
                partition_collection(collection, partitioner))
        if summary_factory is None:
            resolved_alias = alias if alias is not None else AliasMapping.identity()
            summary_factory = lambda c: IncomingSummary(c, alias=resolved_alias)
        # One scorer over GLOBAL statistics, shared by every shard: the
        # prerequisite for byte-identical scores across shard counts.
        if scorer is None:
            scorer = BM25Scorer(ScoringStats.from_collection(collection))
        first = TrexEngine(subs[0], summary_factory(subs[0]), scorer=scorer,
                           tokenizer=tokenizer, cost_model=cost_model,
                           support_weight=support_weight,
                           auto_materialize=auto_materialize,
                           fragment_size=fragment_size, block_size=block_size,
                           ta_batch_size=ta_batch_size, backend=backend,
                           compression=compression)
        self._assemble(collection, [first, *(
            first.sibling(sub, summary_factory(sub)) for sub in subs[1:])],
            partitioner, summary_factory, shard_deadline=shard_deadline,
            fail_soft=fail_soft, replicas=replicas, read_policy=read_policy,
            quorum=quorum)

    def _assemble(self, collection: Collection, leaders: list[TrexEngine],
                  partitioner: Partitioner,
                  summary_factory: Callable[[Collection], Any], *,
                  shard_deadline: float | None, fail_soft: bool,
                  replicas: int, read_policy: str, quorum: int) -> None:
        """Put one replica group behind each leader; the settings the
        leaders share (scorer, cost model, layout) are the coordinator's."""
        first = leaders[0]
        self.collection = collection
        self.partitioner = partitioner
        self.cost_model = first.cost_model
        self.tokenizer = first.tokenizer
        self.scorer = first.scorer
        self.block_size = first.block_size
        self.backend = first.backend
        self.compression = first.compression
        self.shard_deadline = shard_deadline
        self.fail_soft = fail_soft
        self.num_replicas = max(1, replicas)
        self.read_policy = read_policy
        self.quorum = quorum
        self._counter_lock = sanitizer.make_lock("shard-counters")
        #: Global summary — collection-wide sids for hits (labels in
        #: payloads, explain output).  One shard reads it itself.
        self.summary = (first.summary if len(leaders) == 1
                        else summary_factory(collection))
        self.shards: list[Shard] = []
        for index, leader in enumerate(leaders):
            # Each follower owns its OWN copy of the shard's collection
            # (same Document objects, separate stats and tables), so a
            # leader ingest does not leak into it: it changes only when
            # a shipped record applies.
            owned = (Collection.from_documents(
                leader.collection, name=f"{leader.collection.name}.r{rank}")
                for rank in range(1, self.num_replicas))
            engines = [leader, *(leader.sibling(own, summary_factory(own))
                                 for own in owned)]
            group = ReplicaGroup(engines, name=f"shard{index}",
                                 read_policy=read_policy, quorum=quorum,
                                 read_deadline=shard_deadline)
            self.shards.append(Shard(index=index, engine=leader, group=group))

    @classmethod
    def from_engine(cls, engine: TrexEngine, num_shards: int, *,
                    policy: str = "hash",
                    shard_deadline: float | None = None,
                    fail_soft: bool = True,
                    replicas: int = 1,
                    read_policy: str = "round_robin",
                    quorum: int = 1) -> "ShardedEngine":
        """The coordinator over a built engine.  At one shard it adopts
        *engine* as shard 0's leader — no partition, no rebuild — and
        any followers start from its catalog; otherwise every shard (and
        the global summary) is built like *engine*, backend and codec
        included, over a partition of its collection.  A sharded engine
        is returned as it is."""
        if isinstance(engine, cls):
            return engine
        partitioner = make_partitioner(policy, num_shards, engine.collection)
        leaders = [engine] if num_shards == 1 else [
            engine.sibling(sub, engine.summary.over(sub))
            for sub in partition_collection(engine.collection, partitioner)]
        sharded = cls.__new__(cls)
        sharded._assemble(engine.collection, leaders, partitioner,
                          engine.summary.over, shard_deadline=shard_deadline,
                          fail_soft=fail_soft, replicas=replicas,
                          read_policy=read_policy, quorum=quorum)
        return sharded

    # ------------------------------------------------------------------
    # Engine-surface properties
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def epoch(self) -> int:
        """Data version: the sum of the leaders' epochs.  Each is
        monotone and every data change bumps one, so the sum changes
        with any shard's data and only grows — a sound cache token and
        newer-than test."""
        return sum(shard.engine.epoch for shard in self.shards)

    @property
    def auto_materialize(self) -> bool:
        return self.shards[0].engine.auto_materialize

    @auto_materialize.setter
    def auto_materialize(self, value: bool) -> None:
        for shard in self.shards:
            for replica in shard.group.replicas:
                replica.engine.auto_materialize = value

    @property
    def ta_batch_size(self) -> int:
        return self.shards[0].engine.ta_batch_size

    @ta_batch_size.setter
    def ta_batch_size(self, value: int) -> None:
        """Sorted accesses (TA) / windows (WAND) per step, on every
        replica — the granularity at which the coordinator refreshes
        the global floor."""
        for shard in self.shards:
            for replica in shard.group.replicas:
                replica.engine.ta_batch_size = value

    @property
    def catalog_bytes(self) -> int:
        return sum(shard.engine.catalog.total_bytes for shard in self.shards)

    def segment_count(self) -> int:
        return sum(len(list(shard.engine.catalog.segments()))
                   for shard in self.shards)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, query: str | NexiQuery, *,
                  vague: bool = True) -> ShardedTranslation:
        if isinstance(query, str):
            query = parse_nexi(query)
        per_shard = tuple(shard.engine.translate(query, vague=vague)
                          for shard in self.shards)
        if self.shards[0].engine.summary is self.summary:
            return ShardedTranslation(per_shard[0], per_shard)
        with self.cost_model.muted():
            source = translate_query(query, self.summary, self.tokenizer,
                                     vague=vague)
        return ShardedTranslation(source, per_shard)

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
        """Scatter-gather: resolve ``auto`` once, plan each shard's
        local translation with that method and open one session per
        shard from its plan (:meth:`TrexEngine.open_session`), step the
        live ones round by round, then gather, relabel, sort and cut at
        k.  ``stats.cost`` is everything charged from the first lease
        on."""
        check_request(method, mode, k)
        if method == "auto":
            method = self.choose_method(translated, mode)
        overall = self.cost_model.snapshot()
        events = {"read": 0, "failover": 0}

        def on_event(kind: str) -> None:
            events[kind] += 1

        runs: list[_ShardRun] = []
        rows: list[dict] = []
        try:
            for shard, local in zip(self.shards, translated.per_shard):
                plan = shard.engine.plan(local, k, method, mode=mode,
                                         require_phrases=require_phrases)
                excluded: set[int] = set()
                try:
                    lease, session = shard.group.open_read(
                        lambda engine, plan=plan: engine.open_session(plan),
                        excluded=excluded, on_event=on_event)
                except ReplicaQuorumError as error:
                    self._note_quorum_loss(shard, error)
                    rows.append(self._shard_row(shard, outcome="failed"))
                    continue
                runs.append(_ShardRun(shard, plan, lease, session, excluded))
                with self._counter_lock:
                    shard.probes += 1
            self._step(runs, on_event)
            for run in runs:
                run.lease.succeed(elapsed=run.elapsed)
        finally:
            # Every exit settles every lease: an aborted query (fail-hard
            # deadline or quorum loss, an error out of a step) releases
            # what it holds verdict-free; after succeed() this is a no-op.
            for run in runs:
                run.lease.release()

        total = EvaluationStats(method=method)
        hits: list[ScoredHit] = []
        for run in runs:
            found = ([] if run.outcome else
                     self._relabel(run.shard, run.session.finalize()))
            hits.extend(found)
            stats = EvaluationStats(method=method)
            run.session.stats_into(stats)
            total.merge_with(stats)
            rows.append(self._shard_row(
                run.shard, outcome=run.outcome, cost=run.cost,
                entries_decoded=run.entries_decoded, elapsed=run.elapsed,
                hits=len(found), depth=sum(stats.list_depths.values()),
                early_stop=stats.early_stop))
        rows.sort(key=lambda row: row["shard"])
        total.shard_stats = rows
        total.shards_probed = len(runs)
        total.shards_pruned = sum(row["pruned"] for row in rows)
        total.shards_timed_out = sum(row["timed_out"] for row in rows)
        total.early_stop = total.early_stop or total.shards_pruned > 0
        total.degraded = any(row["timed_out"] or row["failed"]
                             for row in rows)
        total.replica_reads = events["read"]
        total.replica_failovers = events["failover"]

        self.cost_model.sort(len(hits))
        hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))
        if k is not None:
            hits = hits[:k]

        total.price(self.cost_model.since(overall))
        return ResultSet(hits=hits, stats=total, k=k)

    def _step(self, runs: list[_ShardRun],
              on_event: Callable[[str], None]) -> None:
        """Step the live runs round by round until none is live.

        Before each dispatch the global floor is refreshed and tested
        against the run's bound (a batch finished moments ago on a
        sibling shard can prune it at once) when two or more runs hold
        a heap; after it, the shard's deadline; a replica fault
        rebuilds the run on a sibling.  Runs go in descending order of
        static upper bound (a heap session's block-max threshold before
        any sorted access): the high-bound shards raise the floor
        first, so a low-bound shard can be pruned before its first
        dispatch — it never decodes a block.
        """
        active = sorted(runs, key=lambda run: -run.session.threshold())
        # A session without a heap neither feeds the floor nor meets it;
        # a lone heap's floor is its own k-th score, which prunes nothing.
        floored = sum(run.session.heap is not None for run in runs) > 1
        while active:
            survivors: list[_ShardRun] = []
            for run in active:
                heap = run.session.heap
                floor = (self._global_floor(runs, heap.k)
                         if floored and heap is not None else None)
                snapshot = self.cost_model.snapshot()
                started = time.perf_counter()
                live = faulted = False
                if floor is not None and run.session.can_prune(floor):
                    # No element this shard could still deliver can make
                    # the global top-k: terminate it early.
                    run.session.prune()
                    run.outcome = "pruned"
                    with self._counter_lock:
                        run.shard.pruned += 1
                else:
                    try:
                        run.lease.check()
                        live = run.session.step()
                    except ReplicaFaultError:
                        faulted = True
                run.account(self.cost_model.since(snapshot),
                            time.perf_counter() - started)
                if faulted:
                    live = self._failover(run, on_event)
                elif (not run.outcome and self.shard_deadline is not None
                        and run.elapsed > self.shard_deadline):
                    run.outcome = "timed_out"
                    run.session.prune()
                    self._note_timeout(run.shard, run.elapsed)
                    live = False
                if live:
                    survivors.append(run)
            active = survivors

    def _failover(self, run: _ShardRun,
                  on_event: Callable[[str], None]) -> bool:
        """Rebuild *run* on a healthy sibling after a mid-query fault.

        The new session restarts from depth zero (sessions are
        replica-local); every replica holds the same bytes, so it
        converges to the same hits.  Returns False when no sibling is
        admissible — the shard is then dropped (fail-soft) or the
        quorum error propagates.
        """
        try:
            run.lease, run.session = run.shard.group.open_read(
                lambda engine: engine.open_session(run.plan),
                excluded=run.excluded, faulted=run.lease, on_event=on_event)
        except ReplicaQuorumError as error:
            run.outcome = "failed"
            run.session.prune()
            self._note_quorum_loss(run.shard, error)
            return False
        return True

    def _global_floor(self, runs: list[_ShardRun], k: int) -> float:
        """k-th largest lower-bound (worst) score across every shard's
        current candidates — a sound lower bound on the true global
        k-th-best score (each heap entry is a real element whose final
        score is at least its worst score)."""
        worst_scores: list[float] = []
        for run in runs:
            heap = run.session.heap
            if heap is not None:
                worst_scores.extend(heap.scores())
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

    def _relabel(self, shard: Shard,
                 hits: list[ScoredHit]) -> list[ScoredHit]:
        """Re-key shard-local hits with global-summary sids."""
        if shard.engine.summary is self.summary:
            return hits
        return [ScoredHit(hit.score, hit.docid, hit.end_pos,
                          sid=self.summary.sid_of(hit.docid, hit.end_pos),
                          length=hit.length)
                for hit in hits]

    @staticmethod
    def _shard_row(shard: Shard, *, outcome: str, cost: float = 0.0,
                   entries_decoded: int = 0, elapsed: float = 0.0,
                   hits: int = 0, depth: int = 0,
                   early_stop: bool = False) -> dict:
        """One ``shard_stats`` row: the same keys, in the same order,
        whatever the method and however the shard's run ended."""
        return {
            "shard": shard.index,
            "cost": round(cost, 3),
            "entries_decoded": entries_decoded,
            "elapsed": round(elapsed, 6),
            "hits": hits,
            "depth": depth,
            "early_stop": early_stop,
            "pruned": outcome == "pruned",
            "timed_out": outcome == "timed_out",
            "failed": outcome == "failed",
        }

    # ------------------------------------------------------------------
    # Strategy selection and serving-layer surface
    # ------------------------------------------------------------------
    def choose_method(self, translated: ShardedTranslation,
                      mode: str = "nexi") -> str:
        return choose_available(self, translated, mode, translated.source)

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
    def warm_segments(self, missing: list[tuple]) -> BuildReport:
        """Materialize the ``(kind, term, sids, shard_index)``
        quadruples of :meth:`missing_segments`, batched per owning
        shard: each shard's group receives **one** warm-up call covering
        all of its targets (sids are local to the owning shard).
        Returns the groups' reports, merged."""
        by_shard: dict[int, list[tuple]] = {}
        for kind, term, sids, shard_index in missing:
            by_shard.setdefault(shard_index, []).append((kind, term, sids))
        merged = BuildReport()
        for shard_index in sorted(by_shard):
            merged.merge(self.shards[shard_index].group.warm_segments(
                by_shard[shard_index]))
        return merged

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    @sanitizer.mutates_engine_state
    def add_document(self, source: str | Document,
                     docid: int | None = None) -> Document:
        """Parse (if needed), register globally, and route to one shard.

        Only the owning shard's tables and epoch change.  A leader that
        holds the global collection and summary itself (one shard)
        registers the document there: each document is added once.
        """
        document = source
        if isinstance(source, str):
            document = XMLParser(self.tokenizer).parse(
                source, self.collection.next_docid if docid is None else docid)
        shard = self.shards[self.partitioner.shard_of(document.docid)]
        if shard.engine.collection is not self.collection:
            with self.cost_model.muted():
                self.collection.add(document)
                self.summary.extend(document)
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
    def explain(self, query: str | NexiQuery, *, vague: bool = True) -> dict:
        """How *query* would run, charging and running nothing:
        :func:`explain_plans` over the global translation, each task's
        terms with their stored lists shard by shard, the partition, and
        every shard's own plan (``local_method``, its tasks over its
        translation, each term's RPL / ERPL and the postings ERA
        reads)."""
        def task_rows(plan: dict) -> list[dict]:
            return [*plan["clauses"], plan["flat"]]

        with self.cost_model.muted():
            translated = self.translate(query, vague=vague)
            chosen = {mode: self.choose_method(translated, mode)
                      for mode in MODES}
            shards = []
            for shard, local in zip(self.shards, translated.per_shard):
                row = explain_plans(local, shard.engine.summary, chosen)
                for task, clause in zip(task_rows(row), _task_clauses(local)):
                    task["terms"] = _stored_lists(shard.engine, clause)
                shards.append({"shard": shard.index,
                               "documents": len(shard.engine.collection),
                               "local_method": row.pop("chosen_method"),
                               **row})
            plan = explain_plans(translated.source, self.summary, chosen)
            for index, (task, clause) in enumerate(
                    zip(task_rows(plan), _task_clauses(translated.source))):
                task["terms"] = {term: [task_rows(row)[index]["terms"][term]
                                        for row in shards]
                                 for term in clause.terms}
            return {**plan, "partition": self.partitioner.describe(),
                    "shards": shards}

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


def _task_clauses(translated: TranslatedQuery) -> list[TranslatedClause]:
    """The tasks :func:`explain_plans` lists, in its order."""
    return [*translated.clauses, translated.flat_clause()]


def _stored_lists(engine: TrexEngine, clause: TranslatedClause) -> dict:
    """Per term of one task: the RPL / ERPL that would serve it on
    *engine* and the postings ERA reads there."""
    terms = {}
    for term in clause.terms:
        rpl = engine.catalog.find_segment("rpl", term, clause.sids)
        erpl = engine.catalog.find_segment("erpl", term, clause.sids)
        postings = engine.blocked_postings.sequence(term)
        terms[term] = {
            "rpl": rpl.describe() if rpl else None,
            "erpl": erpl.describe() if erpl else None,
            "postings": postings.entry_count if postings is not None else 0,
        }
    return terms


def shards_of(engine: TrexEngine | ShardedEngine) -> list[Shard]:
    """The engine's shards, as the coordinator over it sees them: a
    plain :class:`TrexEngine` is adopted
    (:meth:`ShardedEngine.from_engine` at one shard — nothing is rebuilt
    or copied) as shard 0 behind a follower-less replica group, so the
    advisor and the autopilot are written once against this list."""
    return ShardedEngine.from_engine(engine, 1).shards


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
