"""Ablation — TA internals (DESIGN.md §5).

Two knobs of the threshold algorithm that the paper discusses in prose:

* **stop-check batching**: "checking for the stopping condition of TA
  ... reduces the efficiency of the query" (§5.2).  Sweeping the
  sorted-access batch size between stop checks shows the trade-off:
  checking every row costs comparisons, checking rarely reads deeper
  than necessary on skewed lists.
* **scorer choice**: TA's behaviour (depths, early stopping) depends on
  the score distribution; BM25 vs the LM impact scorer over the same
  query demonstrates the strategies stay consistent while costs shift.
"""

from conftest import record_report

from repro.bench import PAPER_QUERIES, format_rows
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.retrieval.ta import ta_retrieve
from repro.scoring import BM25Scorer, LMImpactScorer, ScoringStats
from repro.summary import IncomingSummary


def test_batch_size_ablation(benchmark, ieee_engine):
    query = PAPER_QUERIES[202]
    translated = ieee_engine.translate(query.nexi)
    ieee_engine.materialize_for_query(query.nexi, kinds=("rpl",),
                                      scope="universal")
    sids = translated.flat_sids()
    weights = translated.flat_term_weights()
    segments = {term: ieee_engine.catalog.find_segment("rpl", term, sids)
                for term in weights}

    def run():
        rows = []
        for batch_size in (1, 8, 32, 128, 1024):
            model = ieee_engine.cost_model
            before = model.snapshot()
            hits, stats = ta_retrieve(ieee_engine.catalog, segments, sids,
                                      10, model, weights,
                                      batch_size=batch_size)
            spent = model.since(before)
            rows.append({
                "batch_size": batch_size,
                "cost": round(spent.total_cost, 1),
                "depth": sum(stats.list_depths.values()),
                "top1": round(hits[0].score, 4) if hits else None,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("Ablation: TA stop-check batch size (Q202, k=10)",
                  format_rows(rows))
    # Identical answers at every batch size.
    assert len({row["top1"] for row in rows}) == 1
    # Never-checking (huge batch) cannot beat reasonable batching by
    # much, and per-row checking pays a visible overhead per depth.
    by_batch = {row["batch_size"]: row for row in rows}
    assert by_batch[1]["depth"] <= by_batch[1024]["depth"]


def test_scorer_ablation(benchmark):
    collection = SyntheticIEEECorpus(num_docs=25, seed=23).build()
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    stats = ScoringStats.from_collection(collection)
    query = "//article//sec[about(., introduction information retrieval)]"

    def run():
        rows = []
        for name, scorer in (("bm25", BM25Scorer(stats)),
                             ("lm-impact", LMImpactScorer(stats))):
            engine = TrexEngine(collection, summary, scorer=scorer)
            engine.materialize_for_query(query)  # TA's RPLs, Merge's ERPLs
            era = engine.evaluate(query, k=10, method="era", mode="flat")
            ta = engine.evaluate(query, k=10, method="ta", mode="flat")
            agree = ([h.element_key() for h in era.hits]
                     == [h.element_key() for h in ta.hits])
            rows.append({
                "scorer": name,
                "answers": len(engine.evaluate(query, method="merge",
                                               mode="flat").hits),
                "ta_cost_k10": round(ta.stats.cost, 1),
                "era==ta": agree,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("Ablation: scorer choice (BM25 vs LM impacts)",
                  format_rows(rows))
    for row in rows:
        assert row["era==ta"], f"{row['scorer']}: strategies disagreed"
    # Both scorers retrieve the same answer sets (scores differ).
    assert len({row["answers"] for row in rows}) == 1
