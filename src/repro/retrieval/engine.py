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
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Sequence

from .. import sanitizer
from ..backend import detect_backend, make_backend
from ..build.batch import (
    BatchBuildResult,
    BuildReport,
    compute_document_entries,
    compute_entries_batch,
    filter_scope,
)
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
from ..index.rpl import RplEntry
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
from .iterators import ExtentIterator
from .merge import merge_retrieve
from .result import EvaluationStats, ResultSet
from .ta import DEFAULT_BATCH_SIZE, ta_retrieve
from .wand import wand_retrieve

__all__ = ["TrexEngine", "METHOD_KINDS", "METHODS", "check_request",
           "method_rule", "clause_k", "choose_available"]

#: The strategy surface, declared once: each strategy and the redundant
#: index kinds it reads (what must be resident before it can run
#: read-only).  ERA reads only the base indexes; WAND evaluates the ERPL
#: document-at-a-time (RPL block-max headers only sharpen its bounds and
#: are probed opportunistically).
METHOD_KINDS = {"era": (), "ta": ("rpl",), "merge": ("erpl",),
                "wand": ("erpl",)}
#: What a request may name: a strategy, or ``auto`` (:func:`method_rule`).
METHODS = (*METHOD_KINDS, "auto")


def check_request(method: str, mode: str, k: int | None) -> None:
    """Reject a request no engine can answer — the one validation the
    CLI, the HTTP layer, the service and both engines share, so a bad
    request fails before anything is queued, locked or built."""
    if method not in METHODS:
        raise RetrievalError(
            f"unknown method {method!r}; choose from {METHODS}")
    if mode not in ("nexi", "flat"):
        raise RetrievalError(f"unknown mode {mode!r}; choose 'nexi' or 'flat'")
    if k is not None and k < 1:
        raise RetrievalError(f"k must be at least 1 or None, got {k}")


def method_rule(k: int | None, distinct_terms: set[str],
                have_rpl: bool, have_erpl: bool) -> str:
    """What ``method='auto'`` resolves to — a simple heuristic the
    advisor refines; both engine kinds answer ``choose_method`` with it."""
    if k is not None and k <= 10 and have_rpl:
        return "ta"
    if k is not None and k > 10 and len(distinct_terms) >= 2 and have_erpl:
        # Many moderately-selective terms at a large finite k: the
        # DAAT pivot skips what Merge would stream and what TA would
        # heap — WAND's sweet spot (distributed WAND additionally feeds
        # the global k-th floor into each shard's pivot bound).
        return "wand"
    if have_erpl:
        return "merge"
    if have_rpl:
        return "ta"
    return "era"


def clause_k(clauses: Sequence[TranslatedClause], k: int | None,
             mode: str) -> int | None:
    """The k a clause is evaluated at: the request's for the single
    retrieval task of flat mode or of a one-clause query; ``None``
    otherwise — several clauses must each be evaluated exhaustively for
    the combination step to be exact."""
    return k if mode == "flat" or len(clauses) == 1 else None


def choose_available(engine: Any, translated: Any,
                     clauses: Sequence[TranslatedClause], k: int | None,
                     mode: str) -> str:
    """``choose_method`` of either engine kind: :func:`method_rule`, at
    the k the clauses will run at (:func:`clause_k`), over what the
    catalog can serve *in the request's mode* without building (flat
    mode reads lists covering the union of the clause sids, which
    per-clause lists do not)."""
    have_rpl = have_erpl = True
    if not engine.auto_materialize:
        have_rpl = not engine.missing_segments(translated, ("rpl",),
                                               mode=mode)
        have_erpl = not engine.missing_segments(translated, ("erpl",),
                                                mode=mode)
    return method_rule(clause_k(clauses, k, mode),
                       {term for clause in clauses for term in clause.terms},
                       have_rpl, have_erpl)


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
        #: Delta-to-base size ratio at which :meth:`compact_segments`
        #: folds a segment's LSM delta runs into its base run.
        self.compaction_ratio = compaction_ratio
        #: Report of the most recent :meth:`build_plan` run (telemetry).
        self.last_build_report: BuildReport | None = None
        #: Per-segment delta rows appended by the most recent
        #: :meth:`add_document` — the payload a replica group ships to
        #: followers so their LSM runs stay byte-identical.
        self.last_ingest_deltas: list[tuple[int, tuple[RplEntry, ...]]] = []
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

    # ------------------------------------------------------------------
    # Materialization of redundant indexes
    # ------------------------------------------------------------------
    def compute_entries(self, targets: Iterable[BuildTarget],
                        cost_model: CostModel | None = None
                        ) -> BatchBuildResult:
        """The entries of every target, generated by ERA over this
        engine's Elements and PostingLists indexes (paper §3.2) — the
        one way a collection-wide list comes into being.  Read-only:
        the pass runs on a private buffer pool and meter (*cost_model*
        when the caller wants the build metered), so it may run beside
        queries and leaves ``cost_model`` and the page cache as found.
        """
        return compute_entries_batch(self.blocked_elements,
                                     self.blocked_postings, targets,
                                     self.scorer, cost_model)

    def _materialize(self, kind: str, term: str,
                     sids: frozenset[int] | None,
                     compression: str | None) -> IndexSegment:
        target = BuildTarget(kind, term, scope=sids)
        with self.cost_model.muted():
            sequence = self.catalog.build_sequence(
                kind, self.compute_entries([target]).entries[target],
                compression)
            return self.catalog.install_sequence(kind, term, sequence,
                                                 scope=sids)

    def materialize_rpl(self, term: str, sids: frozenset[int] | None = None,
                        compression: str | None = None) -> IndexSegment:
        """Materialize an RPL segment for *term* (universal when sids=None)."""
        return self._materialize("rpl", term, sids, compression)

    def materialize_erpl(self, term: str, sids: frozenset[int] | None = None,
                         compression: str | None = None) -> IndexSegment:
        """Materialize an ERPL segment for *term* (universal when sids=None)."""
        return self._materialize("erpl", term, sids, compression)

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
        translated = self.translate(query)
        planner = BuildPlanner()

        def request(term: str, sids: frozenset[int]) -> None:
            stored_scope = None if scope == "universal" else sids
            for kind in kinds:
                planner.add(kind, term, scope=stored_scope, cover=sids)

        if scope == "flat":
            flat_sids = translated.flat_sids()
            for term in translated.flat_term_weights():
                request(term, flat_sids)
        else:
            for clause in translated.clauses:
                for term in clause.terms:
                    request(term, clause.sids)
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
        every still-missing target, each installed into the catalog.
        Returns the report and the installed segments in plan order."""
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
          containment, the last step's boolean predicate enforced.  In
          this mode multi-clause queries evaluate each clause
          exhaustively, so TA's top-k early termination only helps
          single-clause queries.
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
        check_request(method, mode, k)
        if method == "auto":
            method = self.choose_method(translated, k, mode)

        if mode == "flat":
            return self._evaluate_flat(translated, method, k)

        total = EvaluationStats(method=method)
        each_k = clause_k(translated.clauses, k, mode)
        clause_hits: list[list[ScoredHit]] = []
        for clause in translated.clauses:
            hits, stats = self._evaluate_clause(clause, method, each_k)
            clause_hits.append(hits)
            total.merge_with(stats)

        hits = self._combine(translated, clause_hits)
        if require_phrases:
            hits = self._filter_phrases(translated, hits)
        if k is not None:
            hits = hits[:k]
        return ResultSet(hits=hits, stats=total, k=k)

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
        tokens = document.tokens_in_span(hit.start_pos, hit.end_pos)
        by_position = {t.position: t.term for t in tokens}
        found = False
        examined = 0
        for token in tokens:
            examined += 1
            if token.term != phrase[0]:
                continue
            if all(by_position.get(token.position + offset) == word
                   for offset, word in enumerate(phrase[1:], start=1)):
                found = True
                break
        self.cost_model.compare(examined)  # one per token examined
        return found

    def flat_clause(self, translated: TranslatedQuery) -> TranslatedClause:
        """The paper's §2.2 single retrieval task for *translated*: one
        clause over the union of all clause sids and merged term
        weights.  Exposed so coordinators (the sharded engine) can set
        up flat-mode sessions without re-deriving the union."""
        weights = translated.flat_term_weights()
        return TranslatedClause(
            step_index=len(translated.query.steps) - 1,
            pattern=translated.target_pattern,
            sids=translated.flat_sids(),
            term_weights=tuple(sorted(weights.items())),
            excluded_terms=(),
            is_target=True,
        )

    def _evaluate_flat(self, translated: TranslatedQuery, method: str,
                       k: int | None) -> ResultSet:
        hits, stats = self._evaluate_clause(self.flat_clause(translated),
                                            method, k)
        if k is not None:
            hits = hits[:k]
        return ResultSet(hits=hits, stats=stats, k=k)

    def _evaluate_clause(self, clause: TranslatedClause, method: str,
                         k: int | None) -> tuple[list[ScoredHit], EvaluationStats]:
        if not clause.sids or not clause.terms:
            return [], EvaluationStats(method=method)
        weights = dict(clause.term_weights)
        # Thread routing is resolved here, once: the strategy loops
        # charge the model this thread's charges land on directly.
        cost_model = self.cost_model.resolve()
        if method == "era":
            return era_retrieve(self.blocked_elements, self.blocked_postings,
                                sorted(clause.sids), list(clause.terms),
                                self.scorer, cost_model, weights)
        if method == "ta":
            segments = self.segments_for(clause, "rpl")
            effective_k = k if k is not None else max(
                1, sum(s.entry_count for s in segments.values()))
            return ta_retrieve(self.catalog, segments, clause.sids,
                               effective_k, cost_model, weights,
                               batch_size=self.ta_batch_size)
        if method == "merge":
            segments = self.segments_for(clause, "erpl")
            return merge_retrieve(self.catalog, segments, clause.sids,
                                  cost_model, weights)
        if method == "wand":
            segments = self.segments_for(clause, "erpl")
            effective_k = k if k is not None else max(
                1, sum(s.entry_count for s in segments.values()))
            return wand_retrieve(self.catalog, segments, clause.sids,
                                 effective_k, cost_model, weights,
                                 bound_segments=self.bound_segments_for(clause))
        raise RetrievalError(f"unknown method {method!r}")

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
                if kind == "rpl":
                    segment = self.materialize_rpl(term)
                else:
                    segment = self.materialize_erpl(term)
            segments[term] = segment
        return segments

    def bound_segments_for(
            self, clause: TranslatedClause) -> dict[str, IndexSegment | None]:
        """Resident RPL segments per clause term, for WAND's static
        upper bounds.  Pure probe: absent segments map to ``None`` (the
        evaluator falls back to the ERPL headers) — nothing is
        materialized, so this is safe under a read lock."""
        return {term: self.catalog.find_segment("rpl", term, clause.sids)
                for term in clause.terms}

    # ------------------------------------------------------------------
    # Clause combination
    # ------------------------------------------------------------------
    def _combine(self, translated: TranslatedQuery,
                 clause_hits: list[list[ScoredHit]]) -> list[ScoredHit]:
        clauses = translated.clauses
        last_step = len(translated.query.steps) - 1
        # Comparisons and score combinations are tallied here and
        # charged once, before the final sort.
        compares = combines = 0

        # 1. Candidate targets and their direct scores.
        candidates: dict[tuple[int, int], ScoredHit] = {}
        satisfied: dict[tuple[int, int], set[int]] = {}

        def note(key: tuple[int, int], clause_index: int) -> None:
            satisfied.setdefault(key, set()).add(clause_index)

        for index, (clause, hits) in enumerate(zip(clauses, clause_hits)):
            if clause.is_target:
                for hit in hits:
                    key = hit.element_key()
                    note(key, index)
                    existing = candidates.get(key)
                    if existing is None:
                        candidates[key] = ScoredHit(hit.score, hit.docid, hit.end_pos,
                                                    sid=hit.sid, length=hit.length)
                    else:
                        existing.score += hit.score
            elif clause.step_index == last_step:
                # relative-path clause on the last step: descendants vote
                # for their target-sid ancestors.
                for hit in hits:
                    for ancestor in self._ancestors_in_sids(
                            hit, translated.target_sids):
                        key = ancestor.element_key()
                        note(key, index)
                        if key not in candidates:
                            candidates[key] = ancestor
                        candidates[key].score += self.support_weight * hit.score
                        combines += 1

        # 2. Support from earlier steps: discounted ancestor contributions.
        # Each hit is charged a comparison with every candidate (the
        # nested-loop join being simulated); only the candidates of its
        # own document can be related to it, so only those are visited.
        by_docid: dict[int, list[tuple[tuple[int, int], ScoredHit]]] = {}
        for key, candidate in candidates.items():
            by_docid.setdefault(candidate.docid, []).append((key, candidate))
        for index, (clause, hits) in enumerate(zip(clauses, clause_hits)):
            if clause.is_target or clause.step_index == last_step:
                continue
            compares += len(hits) * len(candidates)
            for hit in hits:
                for key, candidate in by_docid.get(hit.docid, ()):
                    if (hit.contains(candidate)
                            or hit.element_key() == key
                            or candidate.contains(hit)):
                        candidate.score += self.support_weight * hit.score
                        note(key, index)
                        combines += 1

        # Pure structural / comparison queries carry no about clauses:
        # every target-sid element is a candidate (at score zero).
        if not clauses:
            for sid in sorted(translated.target_sids):
                for span in ExtentIterator(self.blocked_elements, sid).scan():
                    candidates[(span.docid, span.endpos)] = ScoredHit(
                        0.0, span.docid, span.endpos, sid=span.sid,
                        length=span.length)

        # 3. Value comparisons: satisfaction per candidate, by positional
        # relation to an element satisfying the comparison.
        comparison_hits = [self._comparison_hits(tc)
                           for tc in translated.comparisons]

        def comparison_ok(comp_index: int, candidate: ScoredHit) -> bool:
            nonlocal compares
            comparison = translated.comparisons[comp_index]
            for hit in comparison_hits[comp_index]:
                compares += 1
                if hit.docid != candidate.docid:
                    continue
                if (hit.contains(candidate) or candidate.contains(hit)
                        or hit.element_key() == candidate.element_key()):
                    return True
                # Sibling case: the compared element and the candidate
                # are joined through the comparison's step element
                # (e.g. //article[.//yr > 2000]//sec — yr and sec are
                # siblings under the shared article).
                for ancestor in self._ancestors_in_sids(
                        hit, comparison.step_sids):
                    if (ancestor.contains(candidate)
                            or ancestor.element_key() == candidate.element_key()):
                        return True
            return False

        # 4. Enforce the last step's boolean predicate (about clauses by
        # recorded satisfaction, comparisons by positional test), and
        # AND in any comparisons from earlier steps.
        predicate = translated.query.steps[last_step].predicate
        about_ids = _about_indices_for_step(clauses, last_step)
        comp_ids = [index for index, tc in enumerate(translated.comparisons)
                    if tc.step_index == last_step]
        earlier_comp_ids = [index for index, tc
                            in enumerate(translated.comparisons)
                            if tc.step_index != last_step]

        kept = {}
        for key, candidate in candidates.items():
            if predicate is not None and not _predicate_satisfied(
                    predicate, about_ids, comp_ids, satisfied.get(key, set()),
                    lambda ci, c=candidate: comparison_ok(ci, c)):
                continue
            if any(not comparison_ok(ci, candidate)
                   for ci in earlier_comp_ids):
                continue
            kept[key] = candidate
        candidates = kept

        hits = list(candidates.values())
        self.cost_model.compare(compares)
        self.cost_model.score_combine(combines)
        self.cost_model.sort(len(hits))
        hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))
        return hits

    def _comparison_hits(self, comparison: TranslatedComparison) -> list[ScoredHit]:
        """Elements of the comparison's sids satisfying its value test."""
        hits: list[ScoredHit] = []
        if not comparison.sids:
            return hits
        examined = 0
        for document in self.collection:
            positions = [t.position for t in document.tokens]
            for node in document.elements():
                sid = self.summary.sid_of(document.docid, node.end_pos)
                if sid not in comparison.sids:
                    continue
                lo = bisect_right(positions, node.start_pos)
                hi = bisect_left(positions, node.end_pos)
                for occurrence in document.tokens[lo:hi]:
                    examined += 1
                    if comparison.clause.matches(occurrence.term):
                        hits.append(ScoredHit(0.0, document.docid,
                                              node.end_pos, sid=sid,
                                              length=node.length))
                        break
        self.cost_model.compare(examined)  # one per token value tested
        return hits

    def _ancestors_in_sids(self, hit: ScoredHit,
                           target_sids: frozenset[int]) -> list[ScoredHit]:
        """Ancestors-or-self of *hit* whose sid is in *target_sids*."""
        document = self.collection.document(hit.docid)
        node = document.find_by_end(hit.end_pos)
        result = []
        while node is not None:
            sid = self.summary.sid_of(hit.docid, node.end_pos)
            if sid in target_sids:
                result.append(ScoredHit(0.0, hit.docid, node.end_pos,
                                        sid=sid, length=node.length))
            node = node.parent
        return result

    # ------------------------------------------------------------------
    # Strategy selection (simple heuristic; the advisor refines this)
    # ------------------------------------------------------------------
    def choose_method(self, translated: TranslatedQuery, k: int | None,
                      mode: str = "nexi") -> str:
        return choose_available(self, translated, translated.clauses, k, mode)

    def missing_segments(self, translated: TranslatedQuery,
                         kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                         mode: str = "nexi") -> list[tuple[str, str, frozenset[int]]]:
        """``(kind, term, sids)`` triples the query needs but lacks.

        The serving layer consults this before evaluation: an empty
        list means every forced-method evaluation can proceed without
        mutating the catalog, so the query may run under a read lock.
        """
        if mode == "flat":
            sids = translated.flat_sids()
            wanted = [(term, sids) for term in translated.flat_term_weights()]
        else:
            wanted = [(term, clause.sids) for clause in translated.clauses
                      for term in clause.terms]
        missing = []
        for term, sids in wanted:
            for kind in kinds:
                if self.catalog.find_segment(kind, term, sids) is None:
                    missing.append((kind, term, frozenset(sids)))
        return missing

    @sanitizer.mutates_engine_state
    def warm_segments(self, missing: list[tuple]) -> int:
        """Materialize a universal segment for each ``(kind, term, ...)``
        entry of *missing* (as produced by :meth:`missing_segments`)
        that is still absent.  Returns the number of segments created.

        The serving layer calls this under its write lock before
        retrying a forced-method evaluation that reported missing
        indexes.  All absent segments are built together via
        :meth:`build_plan` instead of one per-term ERA run each.
        """
        planner = BuildPlanner()
        planner.add_missing(missing)
        report, _installed = self.build_plan(planner.plan())
        #: Scan accounting + built counts are kept for telemetry.
        self.last_build_report = report
        return report.built

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
        deltas (byte-identical results to a from-scratch rebuild);
        :meth:`compact_segments` folds deltas back into the base when
        their size ratio trips.

        Scoring note: the engine's scorer keeps the corpus-statistics
        snapshot taken at construction, so scores of existing elements
        are unchanged by the insert — which is exactly why appending a
        delta run is exact.  Call :meth:`rebuild_scorer` to refresh
        statistics (which drops all segments, since every stored score
        depends on them).
        """
        if isinstance(source, str):
            parser = XMLParser(self.tokenizer)
            next_id = docid if docid is not None else self.collection.next_docid
            document = parser.parse(source, next_id)
        else:
            document = source
        self._ingest(document, None)
        return document

    @sanitizer.mutates_engine_state
    def apply_replicated_document(
            self, document: Document,
            deltas: tuple[tuple[int, str, str, tuple[RplEntry, ...]], ...]
            ) -> Document:
        """Install a leader-ingested document on a follower replica.

        Structural state (collection, summary, Elements/PostingLists
        indexes) is recomputed locally — it is cheap and deterministic —
        but the scored delta rows are the *shipped* ones, keyed by the
        leader's ``(segment id, kind, term)``, so every replica appends
        exactly the leader's LSM runs without re-running the scorer.
        """
        self._ingest(document, deltas)
        return document

    def _ingest(self, document: Document,
                shipped: tuple[tuple[int, str, str,
                                     tuple[RplEntry, ...]], ...] | None
                ) -> None:
        with self.cost_model.muted():
            self.collection.add(document)
            self.summary.extend(document)
            self.blocked_elements.rebuild([document], self.summary)
            affected = extend_posting_lists(self.blocked_postings, document)
            self.last_ingest_deltas = []
            applied_ids: set[int] = set()
            if shipped is not None:
                for segment_id, kind, term, rows in shipped:
                    # A shipped id this replica lacks — or holds a
                    # *different* replica-local lazy build under — is a
                    # leader-local materialization: skip it.  A later
                    # on-demand build here runs over the (already
                    # extended) base indexes and produces the complete
                    # list anyway.
                    if not self.catalog.has_segment(segment_id):
                        continue
                    resident = self.catalog.get_segment(segment_id)
                    if (resident.kind, resident.term) != (kind, term):
                        continue
                    self.catalog.append_delta(segment_id, list(rows))
                    self.last_ingest_deltas.append((segment_id, rows))
                    applied_ids.add(segment_id)
            # Segments no shipped rows landed on — all of them on a
            # leader/standalone ingest, replica-local lazy builds on a
            # follower — compute their delta rows locally.
            stale = [segment for segment in self.catalog.segments()
                     if segment.term in affected
                     and segment.segment_id not in applied_ids]
            if stale:
                delta_entries = compute_document_entries(
                    document, self.summary,
                    sorted({segment.term for segment in stale}),
                    self.scorer)
                for segment in stale:
                    rows = filter_scope(delta_entries, segment.term,
                                        segment.scope)
                    # A scoped segment whose scope excludes every new
                    # entry is untouched — it is still exact as-is.
                    if rows:
                        self.catalog.append_delta(segment.segment_id,
                                                  rows)
                        self.last_ingest_deltas.append(
                            (segment.segment_id, tuple(rows)))
        self.epoch += 1

    @sanitizer.mutates_engine_state
    def compact_segments(self, *, ratio: float | None = None,
                         force: bool = False) -> int:
        """Fold LSM delta runs into base runs where the delta-to-base
        size ratio trips (``force=True`` folds every segment carrying
        deltas).  Returns the number of segments compacted.

        Compaction never changes query answers — the merged run holds
        exactly the entries the iterators were already merging — so the
        epoch is *not* bumped and result caches stay valid.
        """
        limit = self.compaction_ratio if ratio is None else ratio
        with self.cost_model.muted():
            candidates = self.catalog.compaction_candidates(limit, force=force)
            for segment_id in candidates:
                self.catalog.compact_segment(segment_id)
        return len(candidates)

    @sanitizer.mutates_engine_state
    def rebuild_scorer(self, scorer_factory: Callable[[ScoringStats], ElementScorer] | None = None) -> None:
        """Refresh corpus statistics and drop every stored segment.

        ``scorer_factory`` receives the fresh :class:`ScoringStats` and
        returns a scorer; by default a BM25 scorer is built.
        """
        with self.cost_model.muted():
            stats = ScoringStats.from_collection(self.collection)
            if scorer_factory is None:
                self.scorer = BM25Scorer(stats)
            else:
                self.scorer = scorer_factory(stats)
            for segment in list(self.catalog.segments()):
                self.catalog.drop_segment(segment.segment_id)
        self.epoch += 1

    # ------------------------------------------------------------------
    # Plan explanation
    # ------------------------------------------------------------------
    def explain(self, query: str | NexiQuery, k: int | None = None, *,
                vague: bool = True) -> dict:
        """Describe how the engine would evaluate *query* — translation,
        per-method index availability, and the auto-chosen method —
        without charging the cost model or running anything."""
        with self.cost_model.muted():
            translated = self.translate(query, vague=vague)
            clause_plans = []
            for clause in translated.clauses:
                terms = {}
                for term in clause.terms:
                    rpl = self.catalog.find_segment("rpl", term, clause.sids)
                    erpl = self.catalog.find_segment("erpl", term, clause.sids)
                    postings = self.blocked_postings.sequence(term)
                    terms[term] = {
                        "rpl": rpl.describe() if rpl else None,
                        "erpl": erpl.describe() if erpl else None,
                        "postings": (postings.entry_count
                                     if postings is not None else 0),
                    }
                clause_plans.append({
                    "pattern": str(clause.pattern),
                    "role": "target" if clause.is_target else "support",
                    "sids": sorted(clause.sids),
                    "extent_sizes": {
                        sid: self.summary.extent_size(sid)
                        for sid in sorted(clause.sids)},
                    "terms": terms,
                })
            return {
                "query": str(translated.query),
                "target_pattern": str(translated.target_pattern),
                "num_sids": translated.num_sids,
                "num_terms": translated.num_terms,
                "comparisons": [str(tc.clause) for tc in translated.comparisons],
                "clauses": clause_plans,
                "chosen_method": self.choose_method(translated, k),
            }

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
                         comp_ids: list[int], satisfied: set[int],
                         comparison_ok: Callable[[int], bool],
                         _counters: dict | None = None) -> bool:
    """Evaluate the predicate's boolean structure for one candidate.

    About-clause atoms consult the recorded *satisfied* clause indices;
    comparison atoms call *comparison_ok* with the translated
    comparison's index.  Atoms are matched positionally, in AST order.
    """
    if _counters is None:
        _counters = [0, 0]  # [about atoms seen, comparison atoms seen]
    if isinstance(predicate, AboutClause):
        position = _counters[0]
        _counters[0] += 1
        index = about_ids.get(position)
        return index is not None and index in satisfied
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
