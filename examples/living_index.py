#!/usr/bin/env python3
"""A living index: incremental updates under a served query.

Simulates a deployment over time: start with a small collection, serve
a query, then ingest new documents incrementally — each affected
redundant index gains an LSM delta run — and verify the new content is
immediately searchable with all strategies agreeing.

Run:  python examples/living_index.py
"""

from repro import AliasMapping, IncomingSummary, SyntheticIEEECorpus, TrexEngine

QUERY = "//article//sec[about(., introduction information retrieval)]"


def show_results(engine, result):
    for rank, hit in enumerate(result, start=1):
        print(f"  {rank}. doc={hit.docid} <{engine.summary.label(hit.sid)}> "
              f"span=[{hit.start_pos},{hit.end_pos}] score={hit.score:.4f}")


def main() -> None:
    generator = SyntheticIEEECorpus(num_docs=25, seed=47)
    collection = generator.build()
    engine = TrexEngine(collection,
                        IncomingSummary(collection, alias=AliasMapping.inex_ieee()))
    print(f"Query: {QUERY}\n\nInitial top-5:")
    result = engine.evaluate(QUERY, k=5, method="merge")
    show_results(engine, result)

    print("\nIngesting 5 new documents incrementally...")
    before_segments = len(list(engine.catalog.segments()))
    bigger = SyntheticIEEECorpus(num_docs=30, seed=47)
    for docid in range(25, 30):
        engine.add_document(bigger.document_xml(docid))
    after_segments = len(list(engine.catalog.segments()))
    print(f"  catalog segments: {before_segments} -> {after_segments} "
          "(kept: affected lists gained delta runs)")

    print("\nTop-5 after ingestion (base + delta runs):")
    result = engine.evaluate(QUERY, k=5, method="merge")
    show_results(engine, result)

    era = engine.evaluate(QUERY, k=5, method="era")
    assert [h.element_key() for h in era.hits] == \
        [h.element_key() for h in result.hits]
    print("\nERA and Merge agree on the post-ingestion ranking — the")
    print("incremental maintenance kept every access path consistent.")


if __name__ == "__main__":
    main()
