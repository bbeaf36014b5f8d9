"""Ablation — storage-layer knobs (DESIGN.md §5).

Two knobs of the physical design that the paper fixes implicitly via
BerkeleyDB defaults, swept here to show the cost model responds the
way a storage engine would:

* posting-list **fragment size**: smaller fragments mean more rows
  (and more page traffic) for the same positions, so ERA gets more
  expensive as fragments shrink; results are identical regardless;
* **RPL truncation**: the advisor stores only the prefix TA reads
  (paper §4: "only the part of the RPLs that is needed for computing
  the top-k elements must be stored") — the measured prefix bytes must
  be no larger than the full lists, while TA's answers are unchanged.
"""

from conftest import record_report

from repro.bench import format_rows
from repro.build import BuildTarget
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.selfmanage import Workload, measure_query
from repro.summary import IncomingSummary

QUERY = "//article//sec[about(., introduction information retrieval)]"


def test_fragment_size_ablation(benchmark):
    collection = SyntheticIEEECorpus(num_docs=30, seed=19).build()
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())

    def run():
        rows = []
        reference = None
        for fragment_size in (8, 64, 512):
            engine = TrexEngine(collection, summary,
                                fragment_size=fragment_size)
            result = engine.evaluate(QUERY, k=None, method="era", mode="flat")
            keys = [h.element_key() for h in result.hits]
            if reference is None:
                reference = keys
            assert keys == reference  # physical layout never changes answers
            rows.append({
                "fragment_size": fragment_size,
                "postings_rows": len(engine.blocked_postings),
                "era_cost": round(result.stats.cost, 1),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("Ablation: posting-list fragment size (ERA cost)",
                  format_rows(rows))
    # Fewer, larger fragments -> fewer rows.
    row_counts = [row["postings_rows"] for row in rows]
    assert row_counts == sorted(row_counts, reverse=True)
    # ERA over tiny fragments costs more than over large ones.
    assert rows[0]["era_cost"] > rows[-1]["era_cost"]


def test_rpl_truncation_ablation(benchmark, ieee_engine):
    workload = Workload.uniform([
        ("q", QUERY, 10),
    ])

    def run():
        costs = measure_query(ieee_engine, workload[0])
        translated = ieee_engine.translate(QUERY)
        # The full scoped lists are encoded, not installed: the session
        # engine keeps its catalog as it was.
        targets = [BuildTarget("rpl", term, translated.flat_sids())
                   for term in translated.flat_term_weights()]
        entries = ieee_engine.compute_entries(targets).entries
        with ieee_engine.cost_model.muted():
            full_bytes = sum(ieee_engine.catalog.build_sequence(
                "rpl", entries[target]).size_bytes for target in targets)
        return costs, full_bytes

    costs, full_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("Ablation: RPL truncation (paper §4)", format_rows([{
        "query": "Q270-like",
        "k": 10,
        "truncated_rpl_bytes": costs.s_rpl,
        "full_flat_rpl_bytes": full_bytes,
        "saving": f"{100 * (1 - costs.s_rpl / max(full_bytes, 1)):.0f}%",
    }]))
    # The stored prefix never exceeds the full query-scoped lists...
    assert costs.s_rpl <= full_bytes * 1.05
    # ...and both are real, positive sizes.
    assert costs.s_rpl > 0 and full_bytes > 0
