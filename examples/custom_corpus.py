#!/usr/bin/env python3
"""Indexing your own XML: the directory loader and index persistence.

Writes a handful of XML documents to a temporary directory (stand-ins
for files you would already have), loads them through the positional
parser, builds an engine, persists its index tables to disk, reloads
them into a fresh engine, and answers a query from the reloaded
indexes alone — the lifecycle of a real deployment.

Run:  python examples/custom_corpus.py
"""

import os
import tempfile

from repro import TrexEngine
from repro.corpus.loader import load_collection

DOCUMENTS = {
    "guide.xml": """
        <book><title>A guide to XML retrieval</title>
        <chapter><heading>indexes</heading>
        <p>Inverted lists and structural summaries make XML retrieval fast.</p>
        <p>Top-k processing avoids scoring every element.</p></chapter>
        <chapter><heading>evaluation</heading>
        <p>The threshold algorithm reads relevance ordered lists.</p></chapter>
        </book>""",
    "paper.xml": """
        <book><title>Notes on threshold algorithms</title>
        <chapter><heading>background</heading>
        <p>Fagin's threshold algorithm is instance optimal.</p>
        <p>Merging positional lists is a strong alternative.</p></chapter>
        </book>""",
    "misc.xml": """
        <book><title>Unrelated cooking notes</title>
        <chapter><heading>soup</heading>
        <p>Simmer the stock for an hour.</p></chapter>
        </book>""",
}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        corpus_dir = os.path.join(workdir, "corpus")
        os.makedirs(corpus_dir)
        for filename, text in DOCUMENTS.items():
            with open(os.path.join(corpus_dir, filename), "w",
                      encoding="utf-8") as fh:
                fh.write(text.strip())
        print(f"Wrote {len(DOCUMENTS)} XML files to {corpus_dir}")

        collection = load_collection(corpus_dir)
        print(f"Loaded: {collection.describe()}")

        engine = TrexEngine(collection)  # default: incoming summary
        query = "//chapter[about(., threshold algorithm)]"
        print(f"\nQuery: {query}")
        result = engine.evaluate(query, k=3, method="auto")
        for rank, hit in enumerate(result, start=1):
            print(f"  {rank}. doc={hit.docid} "
                  f"<{engine.summary.label(hit.sid)}> score={hit.score:.4f}")

        # Make sure both index kinds exist before persisting, so the
        # reloaded engine can serve any strategy without rebuilding.
        engine.materialize_for_query(query, kinds=("rpl", "erpl"))
        index_dir = os.path.join(workdir, "indexes")
        engine.save_indexes(index_dir)
        saved = sum(os.path.getsize(os.path.join(root, name))
                    for root, _, names in os.walk(index_dir) for name in names)
        print(f"\nPersisted index tables to {index_dir} ({saved} bytes)")

        fresh = TrexEngine(collection)
        fresh.load_indexes(index_dir)  # evaluation never builds
        again = fresh.evaluate(query, k=3, method="merge")
        print("Reloaded engine answers from the saved RPL/ERPL segments:")
        for rank, hit in enumerate(again, start=1):
            print(f"  {rank}. doc={hit.docid} score={hit.score:.4f}")
        assert [h.element_key() for h in again] == \
            [h.element_key() for h in result]
        print("Round trip verified: identical answers.")


if __name__ == "__main__":
    main()
