"""The combination step is charged, never charged differently.

:meth:`repro.retrieval.engine.TrexEngine._combine` holds candidates as
key -> score / (sid, length) / satisfied-bitmask dicts, joins support on
(start, end) integers, decides the predicate once per distinct bitmask
when no comparison can charge, and builds only the request's first k
hits; a query whose plan (:meth:`~repro.retrieval.engine.TrexEngine.plan`)
finishes as a ``single`` task skips it and charges what it would have.
The combination it replaced — built of ``ScoredHit`` copies,
per-candidate sets and a per-candidate predicate walk — is kept here
**verbatim** (methods as functions, the ``reference_`` names aside) as
the oracle, the way ``test_merge_reference.py`` keeps the Merge loop.

Inputs: the seven paper queries and generated NEXI
(``tests/nexi/test_parser_properties.py``'s ``nexi_queries``), each
× {era, ta, merge, wand} × k ∈ {1, 10, None} × ``require_phrases``.

* ``_combine`` and the reference are fed the same clause hits, each on
  its own cost model behind its own cold page cache, and must agree on
  the hits (score ``repr``), every ``CostCounters`` field, ``sort_work``,
  ``read_units`` and the page-touch sequence.
* Whenever the clauses run at the k they ran at before (every query but
  a one-clause one that is not a single task, the wrong-answer cases
  the plan now runs exhaustively), the whole of
  ``evaluate_translated`` must equal the old path — every clause hit,
  the reference combination, the phrase filter, then the cut — on the
  same meters, with the same diagnostics; its ``stats.cost``,
  ``ideal_cost`` and block counters must be the reference run's
  metered totals (a request is priced by its meter, not by summing its
  clauses).

``REPRO_COMBINE_EXAMPLES`` raises the example count (CI uses 300).
"""

import os
from dataclasses import asdict, replace
from functools import cache
from typing import Callable

import pytest
from hypothesis import example, given, settings

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus)
from repro.errors import RetrievalError
from repro.nexi.ast import (AboutClause, BooleanPredicate, ComparisonClause,
                            Predicate)
from repro.nexi.translate import TranslatedQuery
from repro.retrieval import TrexEngine
from repro.retrieval.engine import _about_indices_for_step
from repro.retrieval.iterators import scan_extent
from repro.retrieval.result import EvaluationStats, ResultSet
from repro.scoring.combine import ScoredHit
from repro.storage import CostModel
from repro.summary import IncomingSummary

from ..nexi.test_parser_properties import nexi_queries
from .test_era_reference import TouchLog

EXAMPLES = int(os.environ.get("REPRO_COMBINE_EXAMPLES", "25"))
STRATEGIES = ("era", "ta", "merge", "wand")
KS = (1, 10, None)
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}


# ----------------------------------------------------------------------
# The combination, as it was
# ----------------------------------------------------------------------
def reference_combine(self, translated: TranslatedQuery,
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
                for ancestor in reference_ancestors_in_sids(
                        self, hit, translated.target_sids):
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
            for span in scan_extent(self.blocked_elements, sid):
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
            for ancestor in reference_ancestors_in_sids(
                    self, hit, comparison.step_sids):
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
        if predicate is not None and not reference_predicate_satisfied(
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


def reference_ancestors_in_sids(self, hit: ScoredHit,
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


def reference_predicate_satisfied(predicate: Predicate,
                                  about_ids: dict[int, int],
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
        results = [reference_predicate_satisfied(op, about_ids, comp_ids,
                                                 satisfied, comparison_ok,
                                                 _counters)
                   for op in predicate.operands]
        if predicate.op == "and":
            return all(results)
        return any(results)
    raise RetrievalError(f"unsupported predicate node {type(predicate).__name__}")


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@cache
def engine_for(collection: str) -> TrexEngine:
    """30 documents, blocks of four rows; ``check_query`` builds each
    query's lists."""
    corpus_class, alias = CORPORA[collection]
    corpus = corpus_class(num_docs=30, seed=42)
    built = corpus.build()
    return TrexEngine(built, IncomingSummary(built, alias=alias()),
                      block_size=4)


def metered(engine: TrexEngine, run: Callable[[], list[ScoredHit]]):
    """*run* on a fresh cost model behind a fresh cold page cache: what
    it returned and everything it charged and touched."""
    model = CostModel()
    with engine.cost_model.scoped(model):
        cache = TouchLog(4096, engine.cost_model)
        engine.use_page_cache(cache)
        hits = run()
    meters = model.snapshot()
    return {
        "hits": [(repr(hit.score), hit.docid, hit.end_pos, hit.sid,
                  hit.length) for hit in hits],
        "counters": asdict(meters.counters),
        "sort_work": repr(meters.sort_work),
        "read_units": repr(meters.read_units),
        "cost": (repr(meters.total_cost), repr(meters.ideal_cost)),
        "touched": cache.touched,
    }


#: The fields ``EvaluationStats.price`` reads off the meter.
PRICED = ("blocks_read", "blocks_decoded", "blocks_skipped",
          "entries_decoded")


def stats_view(stats: EvaluationStats) -> dict:
    """The diagnostics a request's strategies report (no priced field)."""
    return {name: value for name, value in vars(stats).items()
            if isinstance(value, (int, bool, str, dict))
            and name not in PRICED}


def priced_view(stats: EvaluationStats) -> dict:
    """The priced fields, shaped like :func:`metered`'s meters."""
    return {"cost": (repr(stats.cost), repr(stats.ideal_cost)),
            **{name: getattr(stats, name) for name in PRICED}}


def meter_view(meters: dict) -> dict:
    return {"cost": meters["cost"],
            **{name: meters["counters"][name] for name in PRICED}}


def reference_evaluate(engine, translated, k, method, each_k,
                       require_phrases) -> ResultSet:
    """``evaluate_translated``'s nexi path as it was: every clause hit,
    the reference combination, the phrase filter, then the cut."""
    total = EvaluationStats(method=method)
    clause_hits = []
    for clause in translated.clauses:
        hits, stats = engine._evaluate_clause(clause, method, each_k)
        clause_hits.append(hits)
        total.merge_with(stats)
    hits = reference_combine(engine, translated, clause_hits)
    if require_phrases:
        hits = engine._filter_phrases(translated, hits)
    if k is not None:
        hits = hits[:k]
    return ResultSet(hits=hits, stats=total, k=k)


def former_clause_k(translated: TranslatedQuery, k, require_phrases):
    """What nexi-mode clauses ran at before the single-task rule."""
    if require_phrases and any(clause.is_target and clause.phrases
                               for clause in translated.clauses):
        return None
    return k if len(translated.clauses) == 1 else None


def copies(clause_hits):
    return [[replace(hit) for hit in hits] for hits in clause_hits]


def check_query(collection: str, nexi: str) -> None:
    engine = engine_for(collection)
    engine.materialize_for_query(nexi)
    translated = engine.translate(nexi)
    for method in STRATEGIES:
        for k in KS:
            for require_phrases in (False, True):
                check_cell(engine, translated, method, k, require_phrases)


def check_cell(engine, translated, method, k, require_phrases):
    cell = (str(translated.query), method, k, require_phrases)
    plan = engine.plan(translated, k, method,
                       require_phrases=require_phrases)
    each_k = plan.tasks[0].k if plan.tasks else None
    # Warm scorer state first, outside the meters.
    clause_hits = [engine._evaluate_clause(clause, method, each_k)[0]
                   for clause in translated.clauses]
    top = None if require_phrases else k

    got = metered(engine, lambda: engine._combine(
        translated, copies(clause_hits), top=top))
    want = metered(engine, lambda: reference_combine(
        engine, translated, copies(clause_hits))[:top])
    assert got == want, cell

    if former_clause_k(translated, k, require_phrases) != each_k:
        assert plan.finish != "single", cell
        return
    results = {}

    def evaluate(name, run):
        def hits():
            results[name] = run()
            return results[name].hits
        return metered(engine, hits)

    got = evaluate("got", lambda: engine.evaluate_translated(
        translated, k, method, require_phrases=require_phrases))
    want = evaluate("want", lambda: reference_evaluate(
        engine, translated, k, method, each_k, require_phrases))
    assert got == want, cell
    assert (stats_view(results["got"].stats)
            == stats_view(results["want"].stats)), cell
    # The live request is priced by its own meter: what the reference
    # run was charged in total, not the sum of its clauses.
    assert priced_view(results["got"].stats) == meter_view(want), cell


@pytest.mark.parametrize("qid", sorted(PAPER_QUERIES))
def test_paper_queries_combine_as_the_reference(qid):
    check_query(PAPER_QUERIES[qid].collection, PAPER_QUERIES[qid].nexi)


#: Paths the generator rarely reaches on a corpus without numbers: the
#: two wrong-answer cases of the clause k, a sibling join through an
#: earlier step, support on the target element itself, a disjunction
#: with a comparison and phrases under a conjunction.
PINNED = (
    '//article[about(.//p, retrieval)]',
    '//sec[about(., retrieval) and .//st = "introduction"]',
    '//article[.//au = "model"]//sec[about(., retrieval)]',
    '//article[about(.//sec, information retrieval)]'
    '//sec[about(., ontologies)]',
    '//sec[about(., retrieval) or .//st != "introduction"]',
    '//article[about(., query) and about(.//p, "information retrieval")]',
)


def pinned(test):
    for nexi in PINNED:
        test = example(nexi=nexi)(test)
    return test


@given(nexi=nexi_queries())
@pinned
@settings(max_examples=EXAMPLES, deadline=None)
def test_generated_nexi_combines_as_the_reference(nexi):
    check_query("ieee", nexi)
