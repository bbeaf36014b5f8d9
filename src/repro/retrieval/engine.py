"""TReX engine: builds the indexes and evaluates NEXI queries.

The engine owns everything an instance of TReX owns in the paper: the
collection, a structural summary, the Elements and PostingLists indexes,
the catalog of materialized RPL/ERPL segments, a scorer, and a cost
model.  ``evaluate`` runs the two-phase scheme of §3.1 — translation
(each about path → sids + terms) and retrieval (one of ERA / TA /
Merge / WAND per clause) — then combines clause results into ranked target
elements.

Multi-clause semantics (the paper leaves ranking details open; we
follow common INEX practice and document the choice in DESIGN.md):

* the query's *target* elements are those matching the full path;
* an about clause attached to ``.`` of the last step scores targets
  directly; a clause with a relative path (``.//bdy``) scores
  descendants, which vote for their target-sid ancestors; predicates on
  earlier steps act as *support*: their scores are added, discounted by
  ``support_weight``, to contained targets, but do not filter;
* the last step's boolean predicate structure *is* enforced: an
  ``and`` requires every operand clause to be satisfied for the target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .. import sanitizer
from ..backend import detect_backend, make_backend
from ..build.batch import BatchBuildResult, BuildReport, compute_entries_batch
from ..build.planner import BuildPlan, BuildPlanner, BuildTarget
from ..corpus.alias import AliasMapping
from ..corpus.collection import Collection
from ..corpus.document import Document
from ..corpus.tokenizer import Tokenizer
from ..corpus.xmlparser import XMLParser
from ..errors import MissingIndexError, RetrievalError, StorageError
from ..index.catalog import IndexCatalog, IndexSegment
from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings, extend_posting_lists
from ..nexi.ast import (
    AboutClause,
    BooleanPredicate,
    ComparisonClause,
    NexiQuery,
    Predicate,
)
from ..nexi.parser import parse_nexi
from ..nexi.translate import (
    TranslatedClause,
    TranslatedComparison,
    TranslatedQuery,
    translate_query,
)
from ..scoring.combine import ScoredHit
from ..scoring.scorers import BM25Scorer, ElementScorer
from ..scoring.stats import ScoringStats
from ..storage.blocks import DEFAULT_BLOCK_SIZE
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..summary.base import PartitionSummary
from ..summary.variants import IncomingSummary
from .era import era_retrieve
from .heap import TopKHeap
from .iterators import scan_extent
from .merge import merge_retrieve
from .result import EvaluationStats, ResultSet
from .ta import DEFAULT_BATCH_SIZE, TaSession, ta_retrieve
from .wand import WandSession, wand_retrieve

__all__ = ["TrexEngine", "METHOD_KINDS", "METHODS", "MODES",
           "check_request", "method_rule", "choose_available", "ClausePlan",
           "QueryPlan", "explain_plans", "OneShotSession", "Session"]

#: The strategy surface, declared once: each strategy and the redundant
#: index kinds it reads (what must be resident before it can run
#: read-only).  ERA reads only the base indexes; WAND reads Merge's ERPL
#: ranges, skipping the windows their block-max headers rule out.
METHOD_KINDS = {"era": (), "ta": ("rpl",), "merge": ("erpl",),
                "wand": ("erpl",)}
#: What a request may name: a strategy, or ``auto`` (:func:`method_rule`).
METHODS = (*METHOD_KINDS, "auto")
#: The evaluation semantics a request may name (see ``TrexEngine.evaluate``).
MODES = ("nexi", "flat")


def check_request(method: str, mode: str, k: int | None) -> None:
    """Reject a request no engine can answer — the one validation the
    CLI, the HTTP layer, the service and both engines share, so a bad
    request fails before anything is queued, locked or built."""
    if method not in METHODS:
        raise RetrievalError(
            f"unknown method {method!r}; choose from {METHODS}")
    if mode not in MODES:
        raise RetrievalError(f"unknown mode {mode!r}; choose 'nexi' or 'flat'")
    if k is not None and k < 1:
        raise RetrievalError(f"k must be at least 1 or None, got {k}")


def method_rule(have_rpl: bool, have_erpl: bool) -> str:
    """What ``method='auto'`` resolves to: the stored index decides
    (paper §4) — an ERPL is Merge's, an RPL is TA's, and with neither
    ERA reads the base indexes.  Both engine kinds answer
    ``choose_method`` with it."""
    if have_erpl:
        return "merge"
    if have_rpl:
        return "ta"
    return "era"


def choose_available(engine: Any, translated: Any, mode: str,
                     query: TranslatedQuery) -> str:
    """``choose_method`` of either engine kind: :func:`method_rule` over
    what the catalog can serve *in the request's mode* without building
    (flat mode reads lists covering the union of the clause sids, which
    per-clause lists do not).  *query* is the request's translation
    (the coordinator's global one); a request that reads no list (no
    about clause) is ERA's, whatever is stored."""
    if not _term_lists(query, flat=mode == "flat"):
        return method_rule(False, False)
    have_rpl = have_erpl = True
    if not engine.auto_materialize:
        have_rpl = not engine.missing_segments(translated, ("rpl",),
                                               mode=mode)
        have_erpl = not engine.missing_segments(translated, ("erpl",),
                                                mode=mode)
    return method_rule(have_rpl, have_erpl)


@dataclass(frozen=True)
class ClausePlan:
    """One retrieval task of a :class:`QueryPlan`."""

    clause: TranslatedClause
    #: TA's / WAND's heap size (``None``: every entry).
    k: int | None
    #: Ranked hits ERA / Merge build (``None``: all of them).
    top: int | None


@dataclass(frozen=True)
class QueryPlan:
    """Every decision about one request, made once by
    :meth:`TrexEngine.plan`; evaluation, sessions and ``explain`` only
    read it."""

    translated: TranslatedQuery
    #: The concrete strategy every task runs (``auto`` resolved).
    method: str
    mode: str
    k: int | None
    require_phrases: bool
    tasks: tuple[ClausePlan, ...]
    #: How the tasks' hits become the answer: ``ranking`` (flat mode's
    #: task as it stands), ``single`` (the same, charged the sort the
    #: combination would) or ``combine`` (building *top* hits).
    finish: str
    top: int | None
    #: Whether a coordinator can step the run batch by batch
    #: (:meth:`TrexEngine.open_session`).
    resumable: bool


def explain_plans(translated: TranslatedQuery, summary: PartitionSummary,
                  chosen: dict[str, str]) -> dict:
    """``explain``'s schema over one translation: each mode's strategy
    (*chosen*) and the tasks — the nexi clauses, then the flat task —
    each with its pattern, role, sids and extent sizes in *summary*."""
    def task(clause: TranslatedClause) -> dict:
        return {"pattern": str(clause.pattern),
                "role": "target" if clause.is_target else "support",
                "sids": sorted(clause.sids),
                "extent_sizes": {sid: summary.extent_size(sid)
                                 for sid in sorted(clause.sids)}}
    return {
        "query": str(translated.query),
        "target_pattern": str(translated.target_pattern),
        "num_sids": translated.num_sids,
        "num_terms": translated.num_terms,
        "comparisons": [str(tc.clause) for tc in translated.comparisons],
        "chosen_method": chosen,
        "clauses": [task(clause) for clause in translated.clauses],
        "flat": task(translated.flat_clause()),
    }


class OneShotSession:
    """A whole evaluation behind :class:`~repro.retrieval.ta.TaSession`'s
    resumable surface: its one ``step()`` runs its plan to the end.  It
    holds no heap, so a coordinator never feeds it the global floor,
    never charges a floor for it and never prunes it by one."""

    heap: TopKHeap | None = None

    def __init__(self, engine: "TrexEngine", plan: QueryPlan) -> None:
        self._engine, self._plan = engine, plan
        self._result: ResultSet | None = None

    def threshold(self) -> float:
        return float("inf")

    def can_prune(self, floor: float) -> bool:
        return False

    def step(self) -> bool:
        self._result = self._engine._execute(self._plan)
        return False

    def prune(self) -> None:
        self._result = None

    def finalize(self) -> list[ScoredHit]:
        return self._result.hits if self._result is not None else []

    def stats_into(self, stats: EvaluationStats) -> None:
        if self._result is not None:
            stats.merge_with(self._result.stats)


#: What :meth:`TrexEngine.open_session` returns.
Session = TaSession | WandSession | OneShotSession


class TrexEngine:
    """A fully materialized TReX instance over one collection."""

    def __init__(self, collection: Collection,
                 summary: PartitionSummary | None = None, *,
                 alias: AliasMapping | None = None,
                 scorer: ElementScorer | None = None,
                 tokenizer: Tokenizer | None = None,
                 cost_model: CostModel | None = None,
                 support_weight: float = 0.5,
                 auto_materialize: bool = True,
                 fragment_size: int = 64,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 ta_batch_size: int = DEFAULT_BATCH_SIZE,
                 compaction_ratio: float = 0.5,
                 backend: str = "pager",
                 compression: str = "none") -> None:
        if ta_batch_size < 1:
            raise ValueError("ta_batch_size must be at least 1")
        self.collection = collection
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if summary is None:
            summary = IncomingSummary(
                collection, alias if alias is not None else AliasMapping.identity())
        self.summary = summary
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        if scorer is None:
            scorer = BM25Scorer(ScoringStats.from_collection(collection))
        self.scorer = scorer
        self.support_weight = support_weight
        self.auto_materialize = auto_materialize
        #: Sorted accesses between TA stopping-condition checks.
        self.ta_batch_size = ta_batch_size
        #: Delta-to-base size ratio at which the replica group's
        #: ``compact_segments`` folds a segment's LSM delta runs into
        #: its base run.
        self.compaction_ratio = compaction_ratio
        #: Monotonic data-version counter.  Bumped whenever the answers
        #: the engine would give can change (document ingestion, scorer
        #: rebuild, index reload) — result caches key their entries on
        #: it to detect staleness.
        self.epoch = 0

        self.block_size = block_size
        #: Storage backend for the catalog's persisted segments and the
        #: charge profile of cold block reads (see ``repro.backend``).
        self.backend = backend
        #: Default block-payload compression for newly built segments.
        self.compression = compression
        with self.cost_model.muted():
            self.catalog = IndexCatalog(cost_model=self.cost_model,
                                        block_size=block_size,
                                        backend=backend,
                                        compression=compression)
            # The two base indexes, as block sequences (skip directory
            # resident, payloads decoded per block): built, extended,
            # queried and saved in this one form.
            self.blocked_elements = BlockedElements(
                cost_model=self.cost_model, block_size=block_size)
            self.blocked_elements.rebuild(collection, summary)
            self.blocked_postings = BlockedPostings(
                cost_model=self.cost_model, fragment_size=fragment_size)
            self.blocked_postings.rebuild(collection)

    def sibling(self, collection: Collection,
                summary: PartitionSummary) -> "TrexEngine":
        """A new engine over *collection* and *summary* set up as this
        one — scorer, tokenizer and cost model shared (a shard's or a
        replica's engine)."""
        return TrexEngine(collection, summary, scorer=self.scorer,
                          tokenizer=self.tokenizer,
                          cost_model=self.cost_model,
                          support_weight=self.support_weight,
                          auto_materialize=self.auto_materialize,
                          fragment_size=self.blocked_postings.chunk,
                          block_size=self.block_size,
                          ta_batch_size=self.ta_batch_size,
                          compaction_ratio=self.compaction_ratio,
                          backend=self.backend, compression=self.compression)

    # ------------------------------------------------------------------
    # Materialization of redundant indexes
    # ------------------------------------------------------------------
    def compute_entries(self, targets: Iterable[BuildTarget],
                        cost_model: CostModel | None = None,
                        docid: int | None = None) -> BatchBuildResult:
        """The entries of every target, generated by ERA over this
        engine's Elements and PostingLists indexes (paper §3.2) — the
        one way a list, or an ingest's delta run (*docid*: that
        document's entries only), comes into being.  Read-only: the
        pass runs on a private buffer pool and meter (*cost_model* when
        the caller wants the build metered), so it may run beside
        queries and leaves ``cost_model`` and the page cache as found.
        """
        return compute_entries_batch(self.blocked_elements,
                                     self.blocked_postings, targets,
                                     self.scorer, cost_model, docid)

    def plan_for_query(self, query: str | NexiQuery,
                       kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                       scope: str = "universal") -> BuildPlan:
        """The deduplicated build plan covering the query's clauses.

        Repeated ``(term, sids)`` pairs across clauses collapse to one
        target (their cover sets merge), so the batched builder pays
        for each distinct segment once however many clauses want it.
        """
        if scope not in ("universal", "query", "flat"):
            raise RetrievalError(f"unknown materialization scope {scope!r}")
        planner = BuildPlanner()
        for term, sids in _term_lists(self.translate(query),
                                      flat=scope == "flat"):
            for kind in kinds:
                planner.add(kind, term, cover=sids,
                            scope=None if scope == "universal" else sids)
        return planner.plan()

    def materialize_for_query(self, query: str | NexiQuery,
                              kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                              scope: str = "universal") -> list[IndexSegment]:
        """Materialize every missing segment the query's clauses need.

        ``scope='universal'`` builds whole-term lists (shared across
        queries; TA reads and skips through them); ``scope='query'``
        builds lists restricted to each clause's sids; ``scope='flat'``
        builds lists restricted to the union of the query's sids — the
        redundant index a flat-mode evaluation of exactly this query
        reads without any skipping.

        All missing segments come out of one :meth:`compute_entries`
        call instead of one ERA run per term.
        """
        plan = self.plan_for_query(query, kinds, scope=scope)
        _report, installed = self.build_plan(plan)
        return installed

    def _target_satisfied(self, target: BuildTarget) -> bool:
        """Is a catalog segment already good enough for *target*?"""
        cover = target.cover if target.cover is not None else target.scope
        if cover is None:
            # A universal request with no cover set demands an actual
            # universal segment, not merely one covering some sids.
            return any(segment.scope is None and segment.term == target.term
                       for segment in self.catalog.segments(target.kind))
        return self.catalog.find_segment(target.kind, target.term,
                                         cover) is not None

    @sanitizer.mutates_engine_state
    def build_plan(self, plan: BuildPlan
                   ) -> tuple[BuildReport, list[IndexSegment]]:
        """Execute a build plan: one :meth:`compute_entries` call for
        every still-missing target, each installed into the catalog —
        the one code path that builds and installs a list.  Returns the
        report and the installed segments in plan order."""
        report = BuildReport(requested=len(plan))
        installed: list[IndexSegment] = []
        with self.cost_model.muted():
            todo = BuildPlanner()
            for target in plan:
                if self._target_satisfied(target):
                    report.reused += 1
                else:
                    todo.add_target(target)
            pending = todo.plan()
            if pending.is_empty:
                return report, installed
            result = self.compute_entries(pending)
            report.collection_scans = result.collection_scans
            for target in pending:
                segment = self.catalog.install_sequence(
                    target.kind, target.term,
                    self.catalog.build_sequence(target.kind,
                                                result.entries[target]),
                    scope=target.scope)
                installed.append(segment)
                report.built += 1
                report.entries += segment.entry_count
                report.bytes_built += segment.size_bytes
                report.segments.append(segment.describe())
        return report, installed

    def build_segments(self, targets: list[BuildTarget] | BuildPlan
                       ) -> BuildReport:
        """Materialize *targets* (deduplicating first); see
        :meth:`build_plan`."""
        planner = BuildPlanner()
        for target in targets:
            planner.add_target(target)
        report, _installed = self.build_plan(planner.plan())
        return report

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, query: str | NexiQuery, *, vague: bool = True) -> TranslatedQuery:
        if isinstance(query, str):
            query = parse_nexi(query)
        return translate_query(query, self.summary, self.tokenizer, vague=vague)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: str | NexiQuery, k: int | None = None,
                 method: str = "auto", *, vague: bool = True,
                 mode: str = "nexi", require_phrases: bool = False) -> ResultSet:
        """Evaluate *query*, returning all answers or the top *k*.

        ``method`` is one of :data:`METHODS`: ``era``, ``ta``, ``merge``,
        ``wand`` or ``auto`` (:func:`method_rule` over what is
        materialized).  ITA is not requested but read: every TA result
        carries it as ``stats.ideal_cost`` (the cost with the heap
        clock paused, paper §5).

        ``mode`` selects the evaluation semantics:

        * ``'nexi'`` (default) — full NEXI semantics: clauses evaluated
          separately, descendant votes and ancestor support combined by
          containment, the last step's boolean predicate enforced.
          Only a query that is one retrieval task runs its clause at the
          request's k, so TA's and WAND's top-k early termination only
          helps those (:meth:`plan`).
        * ``'flat'`` — the paper's §2.2 single-task evaluation: one
          retrieval over the union of all clause sids and terms, ranked
          directly.  This is what the paper's experiments time (each
          query of Table 1 is one sid list + one term list) and what
          the benchmark harness uses.
        """
        translated = self.translate(query, vague=vague)
        return self.evaluate_translated(translated, k, method, mode=mode,
                                        require_phrases=require_phrases)

    def evaluate_translated(self, translated: TranslatedQuery,
                            k: int | None = None, method: str = "auto", *,
                            mode: str = "nexi",
                            require_phrases: bool = False) -> ResultSet:
        """Evaluate an already-translated query (see :meth:`evaluate`).

        Splitting translation from retrieval lets callers translate once
        and run several strategies over the same translation (the
        serving layer translates under its read lock, checks what the
        method needs, then evaluates).
        """
        return self._execute(self.plan(translated, k, method, mode=mode,
                                       require_phrases=require_phrases))

    def plan(self, translated: TranslatedQuery, k: int | None = None,
             method: str = "auto", *, mode: str = "nexi",
             require_phrases: bool = False) -> QueryPlan:
        """Decide how a request runs — the one place that does.

        ``auto`` resolves through :meth:`choose_method`.  Flat mode is
        one task, :meth:`TranslatedQuery.flat_clause`; so is a nexi query
        with one clause, on ``.`` of the last step, that step's whole
        predicate, and no comparison (paper §2.2).  A task runs at the
        request's k unless phrases are enforced on a target clause that
        has any (the filter must see every answer before the cut); any
        other nexi query runs each clause exhaustively for the
        combination step to be exact."""
        check_request(method, mode, k)
        if method == "auto":
            method = self.choose_method(translated, mode)
        clauses = translated.clauses
        if mode == "flat":
            finish, clauses = "ranking", (translated.flat_clause(),)
        elif (len(clauses) == 1 and clauses[0].is_target
                and not translated.comparisons
                and isinstance(translated.query.steps[-1].predicate,
                               AboutClause)):
            finish = "single"
        else:
            finish = "combine"
        each_k = None if finish == "combine" or (require_phrases and any(
            clause.is_target and clause.phrases
            for clause in translated.clauses)) else k
        tasks = tuple(ClausePlan(clause, each_k, each_k) for clause in clauses)
        return QueryPlan(
            translated, method, mode, k, require_phrases, tasks, finish,
            top=None if require_phrases else k,
            resumable=(mode == "flat" and method in ("ta", "wand")
                       and each_k is not None
                       and bool(clauses[0].sids and clauses[0].terms)))

    def _execute(self, plan: QueryPlan) -> ResultSet:
        """Run *plan*: every task by its strategy, then its finish, the
        phrase filter and the cut.  The cost is the meter's delta over
        all of it; the tasks' diagnostics merge."""
        start = self.cost_model.snapshot()
        total = EvaluationStats(method=plan.method)
        clause_hits: list[list[ScoredHit]] = []
        for task in plan.tasks:
            hits, stats = self._evaluate_clause(task.clause, plan.method,
                                                task.k, top=task.top)
            clause_hits.append(hits)
            total.merge_with(stats)
        if plan.finish == "single":
            # What the combination would charge: a sort of every hit.
            self.cost_model.sort(stats.candidates
                                 if plan.method in ("era", "merge")
                                 else len(hits))
        elif plan.finish == "combine":
            hits = self._combine(plan.translated, clause_hits, top=plan.top)
        if plan.require_phrases:
            hits = self._filter_phrases(plan.translated, hits)
        if plan.k is not None:
            hits = hits[:plan.k]
        total.price(self.cost_model.since(start))
        return ResultSet(hits=hits, stats=total, k=plan.k)

    def _filter_phrases(self, translated: TranslatedQuery,
                        hits: list[ScoredHit]) -> list[ScoredHit]:
        """Keep only hits containing every target-clause quoted phrase.

        Phrases are matched by positional adjacency of the surviving
        tokens — stopwords consume no position, so ``"state of the
        art"`` matches the adjacent tokens ``state art``.
        """
        phrases = [phrase for clause in translated.target_clauses
                   for phrase in clause.phrases]
        if not phrases:
            return hits
        kept = []
        for hit in hits:
            document = self.collection.document(hit.docid)
            if all(self._contains_phrase(document, hit, phrase)
                   for phrase in phrases):
                kept.append(hit)
        return kept

    def _contains_phrase(self, document: Document, hit: ScoredHit,
                         phrase: tuple[str, ...]) -> bool:
        span = document.token_span(hit.start_pos, hit.end_pos)
        positions = document.positions[span]
        terms = document.terms[span]
        by_position = dict(zip(positions, terms))
        found = False
        examined = 0
        for position, term in zip(positions, terms):
            examined += 1
            if term != phrase[0]:
                continue
            if all(by_position.get(position + offset) == word
                   for offset, word in enumerate(phrase[1:], start=1)):
                found = True
                break
        self.cost_model.compare(examined)  # one per token examined
        return found

    def open_session(self, plan: QueryPlan) -> Session:
        """*plan* behind the resumable session surface — what a
        coordinator steps per shard: a resumable plan's one task is a
        :class:`TaSession` / :class:`WandSession`, advanced batch by
        batch; any other plan is a :class:`OneShotSession` that runs it
        whole."""
        if not plan.resumable:
            return OneShotSession(self, plan)
        (task,) = plan.tasks
        clause = task.clause
        weights = dict(clause.term_weights)
        if plan.method == "ta":
            return TaSession(self.catalog, self.segments_for(clause, "rpl"),
                             clause.sids, task.k, self.cost_model.resolve(),
                             weights, batch_size=self.ta_batch_size)
        return WandSession(
            self.catalog, self.segments_for(clause, "erpl"), clause.sids,
            task.k, self.cost_model.resolve(), weights,
            batch_size=self.ta_batch_size)

    def _evaluate_clause(self, clause: TranslatedClause, method: str,
                         k: int | None, *, top: int | None = None,
                         ) -> tuple[list[ScoredHit], EvaluationStats]:
        """One clause by *method*: TA and WAND run at *k*; the
        exhaustive ERA and Merge build only the first *top* ranked hits
        (:class:`ClausePlan`)."""
        if not clause.sids or not clause.terms:
            return [], EvaluationStats(method=method)
        weights = dict(clause.term_weights)
        # Thread routing is resolved here, once: the strategy loops
        # charge the model this thread's charges land on directly.
        cost_model = self.cost_model.resolve()
        if method == "era":
            return era_retrieve(self.blocked_elements, self.blocked_postings,
                                sorted(clause.sids), list(clause.terms),
                                self.scorer, cost_model, weights, k=top)
        segments = self.segments_for(clause, METHOD_KINDS[method][0])
        if method == "merge":
            return merge_retrieve(self.catalog, segments, clause.sids,
                                  cost_model, weights, k=top)
        effective_k = k if k is not None else max(
            1, sum(s.entry_count for s in segments.values()))
        if method == "ta":
            return ta_retrieve(self.catalog, segments, clause.sids,
                               effective_k, cost_model, weights,
                               batch_size=self.ta_batch_size)
        return wand_retrieve(self.catalog, segments, clause.sids,
                             effective_k, cost_model, weights,
                             batch_size=self.ta_batch_size)

    def segments_for(self, clause: TranslatedClause,
                     kind: str) -> dict[str, IndexSegment]:
        """Resolve one segment per clause term (materializing universal
        lists on demand unless ``auto_materialize`` is off)."""
        segments: dict[str, IndexSegment] = {}
        for term in clause.terms:
            segment = self.catalog.find_segment(kind, term, clause.sids)
            if segment is None:
                if not self.auto_materialize:
                    raise MissingIndexError(kind, term=term)
                _report, (segment,) = self.build_plan(
                    BuildPlan((BuildTarget(kind, term),)))
            segments[term] = segment
        return segments

    # ------------------------------------------------------------------
    # Clause combination
    # ------------------------------------------------------------------
    def _combine(self, translated: TranslatedQuery,
                 clause_hits: list[list[ScoredHit]],
                 top: int | None = None) -> list[ScoredHit]:
        """Rank the target elements of a query the combination step is
        not the identity for (a ``combine`` plan): direct scores,
        descendant votes and discounted support, summed in clause order
        then hit order, filtered by the last step's predicate and any
        comparison.  The sort is charged over every kept candidate; only
        the first *top* ranked hits are built (``None``: all of them)."""
        clauses = translated.clauses
        last_step = len(translated.query.steps) - 1
        weight = self.support_weight
        # Comparisons and score combinations are tallied here and
        # charged once, before the final sort.
        compares = combines = 0

        # 1. Candidate targets, keyed by (docid, end_pos): their score,
        # their (sid, length) and the bitmask of the clauses they satisfy.
        scores: dict[tuple[int, int], float] = {}
        shapes: dict[tuple[int, int], tuple[int, int]] = {}
        satisfied: dict[tuple[int, int], int] = {}
        for index, (clause, hits) in enumerate(zip(clauses, clause_hits)):
            bit = 1 << index
            if clause.is_target:
                for hit in hits:
                    key = (hit.docid, hit.end_pos)
                    if key in scores:
                        scores[key] += hit.score
                        satisfied[key] |= bit
                    else:
                        scores[key] = hit.score
                        shapes[key] = (hit.sid, hit.length)
                        satisfied[key] = bit
            elif clause.step_index == last_step:
                # relative-path clause on the last step: descendants vote
                # for their target-sid ancestors.
                for hit in hits:
                    for end_pos, sid, length in self._ancestors_in_sids(
                            hit.docid, hit.end_pos, translated.target_sids):
                        key = (hit.docid, end_pos)
                        scores[key] = (scores.get(key, 0.0)
                                       + weight * hit.score)
                        shapes.setdefault(key, (sid, length))
                        satisfied[key] = satisfied.get(key, 0) | bit
                        combines += 1

        # 2. Support from earlier steps: discounted ancestor contributions.
        # Each hit is charged a comparison with every candidate (the
        # nested-loop join being simulated); only the candidates of its
        # own document can be related to it, so only those are visited.
        support = [(1 << index, hits) for index, (clause, hits)
                   in enumerate(zip(clauses, clause_hits))
                   if not clause.is_target and clause.step_index != last_step]
        by_docid: dict[int, list[tuple[tuple[int, int], int, int]]] = {}
        if support:
            for key, (_sid, length) in shapes.items():
                by_docid.setdefault(key[0], []).append(
                    (key, key[1] - length, key[1]))
        for bit, hits in support:
            compares += len(hits) * len(scores)
            for hit in hits:
                end = hit.end_pos
                start = end - hit.length
                for key, at, to in by_docid.get(hit.docid, ()):
                    # the hit contains the candidate, is it, or lies in it
                    if (start < at and to < end or to == end
                            or at < start and end < to):
                        scores[key] += weight * hit.score
                        satisfied[key] |= bit
                        combines += 1

        # Pure structural / comparison queries carry no about clauses:
        # every target-sid element is a candidate (at score zero).
        if not clauses:
            for sid in sorted(translated.target_sids):
                for span in scan_extent(self.blocked_elements, sid):
                    key = (span.docid, span.endpos)
                    scores[key] = 0.0
                    shapes[key] = (span.sid, span.length)

        # 3. Value comparisons: satisfaction per candidate, by positional
        # relation to an element satisfying the comparison.
        comparison_hits = [self._comparison_hits(tc)
                           for tc in translated.comparisons]

        def comparison_ok(comp_index: int, key: tuple[int, int],
                          at: int, to: int) -> bool:
            nonlocal compares
            step_sids = translated.comparisons[comp_index].step_sids
            for hit in comparison_hits[comp_index]:
                compares += 1
                if hit.docid != key[0]:
                    continue
                end = hit.end_pos
                start = end - hit.length
                # the hit contains the candidate, lies in it, or is it
                if (start < at and to < end or at < start and end < to
                        or end == to):
                    return True
                # Sibling case: the compared element and the candidate
                # are joined through the comparison's step element
                # (e.g. //article[.//yr > 2000]//sec — yr and sec are
                # siblings under the shared article).
                for end_pos, _sid, length in self._ancestors_in_sids(
                        hit.docid, end, step_sids):
                    if end_pos - length < at and to < end_pos or end_pos == to:
                        return True
            return False

        # 4. Enforce the last step's boolean predicate (about clauses by
        # recorded satisfaction, comparisons by positional test), and
        # AND in any comparisons from earlier steps.  Without comparisons
        # the verdict is a function of the satisfied clauses alone.
        predicate = translated.query.steps[last_step].predicate
        about_ids = _about_indices_for_step(clauses, last_step)
        comp_ids = [index for index, tc in enumerate(translated.comparisons)
                    if tc.step_index == last_step]
        earlier_comp_ids = [index for index, tc
                            in enumerate(translated.comparisons)
                            if tc.step_index != last_step]

        kept = []
        if translated.comparisons:
            for key, (_sid, length) in shapes.items():
                at, to = key[1] - length, key[1]

                def ok(comp_index: int) -> bool:
                    return comparison_ok(comp_index, key, at, to)

                if predicate is not None and not _predicate_satisfied(
                        predicate, about_ids, comp_ids,
                        satisfied.get(key, 0), ok):
                    continue
                if any(not ok(ci) for ci in earlier_comp_ids):
                    continue
                kept.append(key)
        elif predicate is None:
            kept = list(scores)
        else:
            verdicts: dict[int, bool] = {}
            for key in scores:
                mask = satisfied.get(key, 0)
                verdict = verdicts.get(mask)
                if verdict is None:
                    verdict = verdicts[mask] = _predicate_satisfied(
                        predicate, about_ids, comp_ids, mask,
                        lambda comp_index: False)  # no comparison atoms
                if verdict:
                    kept.append(key)

        self.cost_model.compare(compares)
        self.cost_model.score_combine(combines)
        self.cost_model.sort(len(kept))
        # By score descending, ties by (docid, end_pos) ascending — the
        # keys are distinct, so a stable sort of the sorted keys.
        kept.sort()
        kept.sort(key=scores.__getitem__, reverse=True)
        return [ScoredHit(scores[key], key[0], key[1], *shapes[key])
                for key in kept[:top]]

    def _comparison_hits(self, comparison: TranslatedComparison) -> list[ScoredHit]:
        """Elements of the comparison's sids satisfying its value test."""
        hits: list[ScoredHit] = []
        if not comparison.sids:
            return hits
        examined = 0
        for document in self.collection:
            for node in document.elements():
                sid = self.summary.sid_of(document.docid, node.end_pos)
                if sid not in comparison.sids:
                    continue
                for term in document.terms_in_span(node.start_pos,
                                                   node.end_pos):
                    examined += 1
                    if comparison.clause.matches(term):
                        hits.append(ScoredHit(0.0, document.docid,
                                              node.end_pos, sid=sid,
                                              length=node.length))
                        break
        self.cost_model.compare(examined)  # one per token value tested
        return hits

    def _ancestors_in_sids(self, docid: int, end_pos: int,
                           sids: frozenset[int]
                           ) -> list[tuple[int, int, int]]:
        """``(end_pos, sid, length)`` of the ancestors-or-self of the
        element of *docid* ending at *end_pos* whose sid is in *sids*,
        nearest first."""
        node = self.collection.document(docid).find_by_end(end_pos)
        result = []
        while node is not None:
            sid = self.summary.sid_of(docid, node.end_pos)
            if sid in sids:
                result.append((node.end_pos, sid, node.length))
            node = node.parent
        return result

    # ------------------------------------------------------------------
    # Strategy selection: the stored index decides (method_rule)
    # ------------------------------------------------------------------
    def choose_method(self, translated: TranslatedQuery,
                      mode: str = "nexi") -> str:
        return choose_available(self, translated, mode, translated)

    def missing_segments(self, translated: TranslatedQuery,
                         kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                         mode: str = "nexi") -> list[tuple[str, str, frozenset[int]]]:
        """``(kind, term, sids)`` triples the query needs but lacks.

        The serving layer consults this before evaluation: an empty
        list means every forced-method evaluation can proceed without
        mutating the catalog, so the query may run under a read lock.
        """
        missing = []
        for term, sids in _term_lists(translated, flat=mode == "flat"):
            for kind in kinds:
                if self.catalog.find_segment(kind, term, sids) is None:
                    missing.append((kind, term, frozenset(sids)))
        return missing

    @sanitizer.mutates_engine_state
    def warm_segments(self, missing: list[tuple]) -> BuildReport:
        """Build, in one :meth:`build_plan` run, a universal segment for
        each ``(kind, term, ...)`` entry of *missing* (as produced by
        :meth:`missing_segments`) that is still absent; returns that
        run's report."""
        planner = BuildPlanner()
        planner.add_missing(missing)
        report, _installed = self.build_plan(planner.plan())
        return report

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    @sanitizer.mutates_engine_state
    def add_document(self, source: str | Document, docid: int | None = None) -> Document:
        """Add one document to the live engine.

        Updates the collection, summary (path-determined summaries
        extend in place), Elements and PostingLists indexes — all
        incrementally: docid allocation is O(1), only the tail of each
        extent and posting list the new document touches is re-blocked,
        and instead of dropping
        every RPL/ERPL segment whose term occurs in the document, the
        document's scored entries are appended to each affected segment
        as a small LSM **delta run**.  The read path merges base +
        deltas (byte-identical results to a from-scratch rebuild); the
        replica group's ``compact_segments`` folds deltas back into the
        base when their size ratio trips.

        Scoring note: the engine's scorer keeps the corpus-statistics
        snapshot taken at construction, so scores of existing elements
        are unchanged by the insert — which is exactly why appending a
        delta run is exact.  The coordinator's ``rebuild_scorer``
        refreshes statistics (and drops all segments, since every
        stored score depends on them).
        """
        document = source
        if isinstance(source, str):
            document = XMLParser(self.tokenizer).parse(
                source, self.collection.next_docid if docid is None else docid)
        with self.cost_model.muted():
            self.collection.add(document)
            self.summary.extend(document)
            self.blocked_elements.rebuild([document], self.summary)
            affected = extend_posting_lists(self.blocked_postings, document)
            # Every segment of an affected term gets its delta rows from
            # ERA over the just-extended base indexes, restricted to the
            # new docid.
            stale = [segment for segment in self.catalog.segments()
                     if segment.term in affected]
            targets = [BuildTarget(segment.kind, segment.term, segment.scope)
                       for segment in stale]
            entries = self.compute_entries(targets,
                                           docid=document.docid).entries
            for segment, target in zip(stale, targets):
                rows = entries[target]
                # A scoped segment whose scope excludes every new
                # entry is untouched — it is still exact as-is.
                if rows:
                    self.catalog.append_delta(segment.segment_id, rows)
        self.epoch += 1
        return document

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def save_indexes(self, directory: str) -> None:
        """Persist Elements, PostingLists and the RPL/ERPL catalog.

        Two stores of the engine's backend, each published atomically
        by its staged ``sync``: ``base/`` (one blob per base index)
        first, ``catalog/`` last.  The collection and summary are *not*
        saved — they are cheap to rebuild from the source documents
        deterministically, while the indexes are the expensive
        artifacts (paper §5.1's gigabytes).
        """
        with self.cost_model.muted():
            store = make_backend(self.backend,
                                 os.path.join(directory, "base"), mode="w")
            try:
                store.write("elements.blk", self.blocked_elements.to_bytes())
                store.write("postings.blk", self.blocked_postings.to_bytes())
                store.sync()
            finally:
                store.close()
            self.catalog.save(os.path.join(directory, "catalog"))

    @sanitizer.mutates_engine_state
    def load_indexes(self, directory: str) -> None:
        """Replace this engine's indexes from a saved directory.

        All or nothing: both stores are read and validated before
        anything is swapped in, so a missing, torn or foreign store
        raises (:class:`~repro.errors.StorageError` or its
        ``StorageCorruptionError`` subclass) and leaves the engine
        answering exactly as before.
        """
        catalog_dir = os.path.join(directory, "catalog")
        base_dir = os.path.join(directory, "base")
        backend = detect_backend(catalog_dir)
        if not os.path.isdir(base_dir):
            # Index directories are derived artifacts: a layout this
            # code does not write (row-store table files beside the
            # catalog, say) is rebuilt from the corpus, not converted.
            raise StorageError(
                f"{directory}: no base/ store beside the catalog; "
                f"rebuild the directory with `repro build`")
        with self.cost_model.muted():
            with make_backend(backend, base_dir, mode="r") as store:
                elements = self.blocked_elements.parse(
                    store.read("elements.blk"),
                    os.path.join(base_dir, "elements.blk"))
                postings = self.blocked_postings.parse(
                    store.read("postings.blk"),
                    os.path.join(base_dir, "postings.blk"))
            self.catalog.load(catalog_dir)
            self.blocked_elements.adopt(elements)
            self.blocked_postings.adopt(postings)
            # The catalog adopts whatever backend the store was written
            # with; keep the engine's view in step.
            self.backend = self.catalog.backend
            self.compression = self.catalog.compression
        self.epoch += 1

    # ------------------------------------------------------------------
    # Buffer-pool management
    # ------------------------------------------------------------------
    def use_page_cache(self, cache: PageCache) -> None:
        """Route every index structure through one shared buffer pool.

        Covers the Elements and PostingLists sequences and every
        RPL/ERPL block sequence in the catalog — the single-cache
        configuration BerkeleyDB runs in the paper.
        """
        self.blocked_elements.use_cache(cache)
        self.blocked_postings.use_cache(cache)
        self.catalog.use_cache(cache)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        return {
            "collection": self.collection.describe(),
            "summary": self.summary.describe(),
            "elements_rows": len(self.blocked_elements),
            "elements_bytes": self.blocked_elements.size_bytes,
            "postings_rows": len(self.blocked_postings),
            "postings_bytes": self.blocked_postings.size_bytes,
            "catalog_bytes": self.catalog.total_bytes,
            "segments": self.catalog.describe(),
            "storage": self.catalog.storage_snapshot(),
        }


def _term_lists(translated: TranslatedQuery, *,
                flat: bool) -> list[tuple[str, frozenset[int]]]:
    """``(term, sids)`` of every list a request reads: one per clause
    term, or in flat mode one per term over the union of the sids."""
    if flat:
        sids = translated.flat_sids()
        return [(term, sids) for term in translated.flat_term_weights()]
    return [(term, clause.sids) for clause in translated.clauses
            for term in clause.terms]


def _about_indices_for_step(clauses: list[TranslatedClause], step: int) -> dict[int, int]:
    """Map the i-th about clause of *step*'s predicate (in AST order) to
    its translated-clause index.  Translation enumerates about clauses
    in AST order, so positions line up."""
    mapping = {}
    position = 0
    for index, clause in enumerate(clauses):
        if clause.step_index == step:
            mapping[position] = index
            position += 1
    return mapping


def _predicate_satisfied(predicate: Predicate, about_ids: dict[int, int],
                         comp_ids: list[int], satisfied: int,
                         comparison_ok: Callable[[int], bool],
                         _counters: dict | None = None) -> bool:
    """Evaluate the predicate's boolean structure for one candidate.

    About-clause atoms consult the bitmask of *satisfied* clause indices;
    comparison atoms call *comparison_ok* with the translated
    comparison's index.  Atoms are matched positionally, in AST order.
    """
    if _counters is None:
        _counters = [0, 0]  # [about atoms seen, comparison atoms seen]
    if isinstance(predicate, AboutClause):
        position = _counters[0]
        _counters[0] += 1
        index = about_ids.get(position)
        return index is not None and bool(satisfied >> index & 1)
    if isinstance(predicate, ComparisonClause):
        position = _counters[1]
        _counters[1] += 1
        if position >= len(comp_ids):
            return False
        return comparison_ok(comp_ids[position])
    if isinstance(predicate, BooleanPredicate):
        results = [_predicate_satisfied(op, about_ids, comp_ids, satisfied,
                                        comparison_ok, _counters)
                   for op in predicate.operands]
        if predicate.op == "and":
            return all(results)
        return any(results)
    raise RetrievalError(f"unsupported predicate node {type(predicate).__name__}")
