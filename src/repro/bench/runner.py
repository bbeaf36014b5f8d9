"""Experiment runners: one function per reproduced paper artifact.

Each function computes the data behind one of the paper's tables or
figures on the synthetic corpora and returns plain dict/list structures
that :mod:`repro.bench.reporting` renders paper-style.  The benchmark
files under ``benchmarks/`` drive these and assert the *shape*
properties (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

from ..corpus.alias import AliasMapping
from ..corpus.collection import Collection
from ..retrieval.engine import TrexEngine
from ..selfmanage.advisor import IndexAdvisor
from ..selfmanage.workload import Workload
from ..summary.variants import IncomingSummary, TagSummary
from .queries import PAPER_QUERIES, PaperQuery

__all__ = [
    "summary_size_rows",
    "index_size_rows",
    "table1_rows",
    "figure_series",
    "rpl_depth_rows",
    "selfmanage_rows",
]


def summary_size_rows(collection: Collection, alias: AliasMapping) -> list[dict]:
    """E1 — §2.1 summary sizes: tag/incoming × plain/alias node counts."""
    rows = []
    identity = AliasMapping.identity()
    for name, summary_cls, mapping in (
            ("incoming", IncomingSummary, identity),
            ("tag", TagSummary, identity),
            ("alias incoming", IncomingSummary, alias),
            ("alias tag", TagSummary, alias)):
        summary = summary_cls(collection, alias=mapping)
        rows.append({
            "summary": name,
            "nodes": summary.sid_count,
            "retrieval_safe": summary.is_retrieval_safe(),
        })
    return rows


def index_size_rows(engines: dict[str, TrexEngine]) -> list[dict]:
    """E2 — §5.1 table sizes: Elements and PostingLists per collection."""
    rows = []
    for name, engine in engines.items():
        stats = engine.collection.stats
        rows.append({
            "collection": name,
            "documents": stats.num_documents,
            "corpus_tokens": stats.total_tokens,
            "elements_rows": len(engine.blocked_elements),
            "elements_bytes": engine.blocked_elements.size_bytes,
            "postings_rows": len(engine.blocked_postings),
            "postings_bytes": engine.blocked_postings.size_bytes,
        })
    return rows


def table1_rows(engines: dict[str, TrexEngine]) -> list[dict]:
    """E3 — Table 1: per query, #sids, #terms and #answers."""
    rows = []
    for qid in sorted(PAPER_QUERIES):
        paper_query = PAPER_QUERIES[qid]
        engine = engines[paper_query.collection]
        translated = engine.translate(paper_query.nexi)
        answers = engine.evaluate(paper_query.nexi, k=None, method="era",
                                  mode="flat")
        rows.append({
            "qid": qid,
            "nexi": paper_query.nexi,
            "collection": paper_query.collection,
            "num_sids": translated.num_sids,
            "num_terms": translated.num_terms,
            "num_answers": len(answers.hits),
        })
    return rows


def figure_series(engine: TrexEngine, paper_query: PaperQuery,
                  k_values: tuple[int, ...] | None = None,
                  scope: str = "universal") -> dict:
    """E4–E10 — one evaluation-time figure: ERA and Merge levels (all
    answers) plus TA, ITA and document-at-a-time WAND as functions of
    k, in simulated cost units.

    Queries are evaluated in the paper's flat single-task mode (§2.2).
    ``scope='universal'`` reads shared whole-term lists (TA skips
    through foreign sids — the default setting); ``scope='flat'`` reads
    query-scoped lists, the redundant indexes the self-managing advisor
    stores for needle queries such as Q233.
    """
    engine.materialize_for_query(paper_query.nexi, kinds=("rpl", "erpl"),
                                 scope=scope)
    era = engine.evaluate(paper_query.nexi, k=None, method="era", mode="flat")
    merge = engine.evaluate(paper_query.nexi, k=None, method="merge", mode="flat")
    ks = k_values if k_values is not None else paper_query.k_sweep
    ta_costs, ita_costs, depth_fractions = [], [], []
    wand_costs, wand_pivots, wand_evaluated = [], [], []
    for k in ks:
        result = engine.evaluate(paper_query.nexi, k=k, method="ta", mode="flat")
        ta_costs.append(result.stats.cost)
        ita_costs.append(result.stats.ideal_cost)
        depths = result.stats.list_depths
        lengths = result.stats.list_lengths
        fraction = (sum(depths.values()) / sum(lengths.values())
                    if sum(lengths.values()) else 0.0)
        depth_fractions.append(fraction)
        wand = engine.evaluate(paper_query.nexi, k=k, method="wand",
                               mode="flat")
        wand_costs.append(wand.stats.cost)
        wand_pivots.append(wand.stats.pivot_advances)
        wand_evaluated.append(wand.stats.docs_evaluated)
    return {
        "qid": paper_query.qid,
        "k_values": list(ks),
        "era": era.stats.cost,
        "merge": merge.stats.cost,
        "ta": ta_costs,
        "ita": ita_costs,
        "wand": wand_costs,
        "wand_pivot_advances": wand_pivots,
        "wand_docs_evaluated": wand_evaluated,
        "answers": len(era.hits),
        "rpl_depth_fraction": depth_fractions,
    }


def rpl_depth_rows(engines: dict[str, TrexEngine],
                   k_probe: dict[str, int] | None = None) -> list[dict]:
    """E11 — §5.2's claim: TA reads the entire RPLs beyond small k.

    For each query, the fraction of the RPLs read at the probe k
    (paper: k ≥ 10 on IEEE, k ≥ 50 on Wikipedia reads everything).
    """
    probes = {"ieee": 10, "wiki": 50}
    if k_probe:
        probes.update(k_probe)
    rows = []
    for qid in sorted(PAPER_QUERIES):
        paper_query = PAPER_QUERIES[qid]
        engine = engines[paper_query.collection]
        engine.materialize_for_query(paper_query.nexi, kinds=("rpl",),
                                     scope="universal")
        k = probes[paper_query.collection]
        result = engine.evaluate(paper_query.nexi, k=k, method="ta", mode="flat")
        depths = result.stats.list_depths
        lengths = result.stats.list_lengths
        total_depth = sum(depths.values())
        total_length = sum(lengths.values())
        rows.append({
            "qid": qid,
            "collection": paper_query.collection,
            "k": k,
            "rows_read": total_depth,
            "rows_total": total_length,
            "fraction": total_depth / total_length if total_length else 0.0,
            "early_stop": result.stats.early_stop,
        })
    return rows


def selfmanage_rows(engine: TrexEngine, workload: Workload,
                    budgets: list[int]) -> list[dict]:
    """E12 — self-management ablation: greedy vs ILP across disk budgets."""
    advisor = IndexAdvisor(engine)
    baseline = advisor.baseline_cost(workload)
    rows = []
    for budget in budgets:
        greedy = advisor.recommend(workload, budget, method="greedy")
        ilp = advisor.recommend(workload, budget, method="ilp")
        rows.append({
            "budget": budget,
            "baseline_cost": baseline,
            "greedy_gain": greedy.total_gain,
            "greedy_bytes": greedy.total_size,
            "greedy_cost": advisor.expected_cost(workload, greedy),
            "ilp_gain": ilp.total_gain,
            "ilp_bytes": ilp.total_size,
            "ilp_cost": advisor.expected_cost(workload, ilp),
        })
    return rows
