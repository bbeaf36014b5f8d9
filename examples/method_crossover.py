#!/usr/bin/env python3
"""Strategy crossovers: a miniature of the paper's Figures 4–6.

Sweeps k for one query and prints the simulated evaluation cost of TA,
ITA and block-max WAND against the flat all-answers cost of
ERA and Merge — the experiment behind the paper's conclusion that
"relying on a single retrieval strategy is inferior to employing
several strategies".  WAND extends the menu: it reads Merge's ranges
in windows bounded by the block-max headers, skips the windows that
cannot reach the top-k and heaps only what can, which often undercuts
both TA (no heap churn over every candidate) and Merge (no sort of
every answer) at small-to-mid k.

Run:  python examples/method_crossover.py [query_id]
where query_id is one of the paper's Table 1 ids (default 260).
"""

import sys

from repro.bench import PAPER_QUERIES, bench_engine, figure_series


def main() -> None:
    qid = int(sys.argv[1]) if len(sys.argv) > 1 else 260
    if qid not in PAPER_QUERIES:
        raise SystemExit(f"unknown query id {qid}; choose from "
                         f"{sorted(PAPER_QUERIES)}")
    paper_query = PAPER_QUERIES[qid]

    print(f"Query {qid} ({paper_query.collection}): {paper_query.nexi}")
    print("Building the bench engine (cached across runs in one process)...")
    engine = bench_engine(paper_query.collection, num_docs=60)

    series = figure_series(engine, paper_query)
    print(f"\nanswers: {series['answers']}")
    print(f"ERA   (all answers): {series['era']:12.0f}")
    print(f"Merge (all answers): {series['merge']:12.0f}")
    print(f"\n{'k':>8s} {'TA':>12s} {'ITA':>12s} {'WAND':>12s} "
          f"{'best method':>14s}")
    for i, k in enumerate(series["k_values"]):
        ta, ita = series["ta"][i], series["ita"][i]
        wand = series["wand"][i]
        costs = {"merge(all)": series["merge"], "ta": ta, "wand": wand,
                 "era(all)": series["era"]}
        best = min(costs, key=costs.get)
        print(f"{k:>8d} {ta:>12.0f} {ita:>12.0f} {wand:>12.0f} {best:>14s}")

    print("\nReading the table: Merge computes *all* answers at a flat cost;")
    print("TA's cost depends strongly on k (heap management dominates at")
    print("mid-range k and vanishes as k approaches the answer count);")
    print("an ideal heap (ITA) removes that overhead entirely.  WAND")
    print("reads Merge's ranges in block-max windows, skipping those that")
    print("cannot reach the top-k — at small k it can undercut both TA")
    print("and Merge in these units.  auto still follows the stored index")
    print("(ERPL -> Merge, RPL -> TA), the paper's section 4 mapping.")


if __name__ == "__main__":
    main()
