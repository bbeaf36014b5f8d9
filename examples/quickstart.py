#!/usr/bin/env python3
"""Quickstart: build a collection, index it, run NEXI queries.

Builds a small synthetic INEX-IEEE-style collection, constructs the
alias incoming summary and the TReX indexes over it, and evaluates a
NEXI retrieval query with each of the paper's three strategies (plus
the ideal-heap ITA variant), printing the ranked answers and the
simulated evaluation cost of each method.

Run:  python examples/quickstart.py
"""

from repro import AliasMapping, IncomingSummary, SyntheticIEEECorpus, TrexEngine


def main() -> None:
    print("Building a synthetic IEEE-like collection (40 articles)...")
    collection = SyntheticIEEECorpus(num_docs=40, seed=7).build()
    print(f"  {collection.describe()}")

    print("\nConstructing the alias incoming summary and TReX indexes...")
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    engine = TrexEngine(collection, summary)
    print(f"  summary: {summary.describe()}")
    print(f"  Elements rows: {len(engine.blocked_elements)}, "
          f"PostingLists rows: {len(engine.blocked_postings)}")

    query = "//article[about(., xml)]//sec[about(., query evaluation)]"
    print(f"\nNEXI query: {query}")

    translated = engine.translate(query)
    for clause in translated.clauses:
        role = "target" if clause.is_target else "support"
        print(f"  clause ({role}): path={clause.pattern} "
              f"sids={sorted(clause.sids)} terms={list(clause.terms)}")

    # Evaluation only reads what is stored: TA reads RPLs, Merge and
    # WAND read ERPLs, so those lists are built first (ERA needs none).
    engine.materialize_for_query(query, ("rpl", "erpl"))
    print("\nTop-5 answers by method (all methods agree on the ranking):")
    for method in ("era", "ta", "merge", "wand"):
        result = engine.evaluate(query, k=5, method=method)
        print(f"\n  method={method:5s} simulated cost={result.stats.cost:10.1f}"
              + (f"  (ITA, heap clock paused: {result.stats.ideal_cost:.1f})"
                 if method == "ta" else ""))
        for rank, hit in enumerate(result, start=1):
            label = engine.summary.label(hit.sid)
            print(f"    {rank}. <{label}> doc={hit.docid} "
                  f"span=[{hit.start_pos},{hit.end_pos}] score={hit.score:.4f}")

    print("\nNote: 'cost' is the deterministic simulated I/O+CPU cost that")
    print("replaces the paper's wall-clock seconds (see DESIGN.md).")


if __name__ == "__main__":
    main()
