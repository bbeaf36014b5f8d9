"""E2 — §5.1 index table sizes.

Paper: IEEE (0.76 GB corpus) → Elements 1.52 GB, PostingLists 8.05 GB;
Wikipedia (4.6 GB) → 3.91 GB and 48.1 GB.  The reproduced shape: for
both collections the PostingLists table is several times larger than
the Elements table (paper factors ≈ 5.3× and 12.3×), and both tables
exceed the raw token volume in rows/entries proportionally.
"""

import json
import os
import tempfile

from conftest import record_report

from repro.backend import BACKEND_NAMES, COMPRESSIONS, open_backend
from repro.bench import format_rows, index_size_rows
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary


def test_index_sizes(benchmark, engines):
    rows = benchmark.pedantic(lambda: index_size_rows(engines),
                              rounds=1, iterations=1)
    record_report("E2: index table sizes (paper §5.1)", format_rows(rows))
    for row in rows:
        # PostingLists dominates Elements, as in the paper.
        assert row["postings_bytes"] > 2 * row["elements_bytes"]
        assert row["elements_rows"] > 0 and row["postings_rows"] > 0
    ieee = next(row for row in rows if row["collection"] == "ieee")
    wiki = next(row for row in rows if row["collection"] == "wiki")
    # The IEEE-like corpus is token-denser per document than the
    # Wikipedia-like one (matching the papers' corpus profiles).
    assert (ieee["corpus_tokens"] / ieee["documents"]
            > wiki["corpus_tokens"] / wiki["documents"])


# ----------------------------------------------------------------------
# Backend × codec footprint: the same catalog saved through every
# storage backend, flat and compressed, pinned to a committed baseline.
# ----------------------------------------------------------------------

BACKENDS_BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                                      "baseline_backends.json")
BACKEND_QUERY = "//article//sec[about(., introduction information retrieval)]"


def compute_backend_sizes():
    collection = SyntheticIEEECorpus(num_docs=24, seed=77).build()
    alias = AliasMapping.inex_ieee()
    rows = []
    for backend in BACKEND_NAMES:
        for codec in COMPRESSIONS:
            engine = TrexEngine(collection,
                                IncomingSummary(collection, alias=alias),
                                backend=backend, compression=codec)
            # Materialize the query's RPL and ERPL segments, then save
            # (kind by kind: the pinned store sizes depend on id order).
            for kind in ("rpl", "erpl"):
                engine.materialize_for_query(BACKEND_QUERY, (kind,))
            snapshot = engine.catalog.storage_snapshot()
            row = {
                "backend": backend,
                "codec": codec,
                "segments": sum(kind["segments"]
                                for kind in snapshot["kinds"].values()),
                "stored_bytes": snapshot["size_bytes"],
                "flat_bytes": snapshot["flat_bytes"],
                "ratio": snapshot["compression_ratio"],
            }
            with tempfile.TemporaryDirectory() as scratch:
                engine.save_indexes(scratch)
                with open_backend(os.path.join(scratch, "catalog")) as store:
                    row["blobs"] = len(store.names())
                    # sqlite's physical file size depends on the linked
                    # library's page layout — pin only the stable stores
                    # (0 marks "not pinned", not an empty store).
                    row["disk_bytes"] = (0 if backend == "sqlite"
                                         else store.size_bytes())
            rows.append(row)
    return rows


def test_backend_footprints(benchmark):
    rows = benchmark.pedantic(compute_backend_sizes, rounds=1, iterations=1)
    record_report("Storage backends: catalog footprint per backend × codec",
                  format_rows(rows))
    by_key = {(row["backend"], row["codec"]): row for row in rows}
    for backend in BACKEND_NAMES:
        flat, packed = by_key[(backend, "none")], by_key[(backend, "zlib")]
        # Compression shrinks the stored catalog; the flat equivalent
        # (and the blob inventory) is codec-independent.
        assert packed["stored_bytes"] < flat["stored_bytes"]
        assert packed["flat_bytes"] == flat["flat_bytes"]
        assert packed["blobs"] == flat["blobs"]
        assert packed["ratio"] < 1.0 < len(BACKEND_NAMES)
    # Logical footprints are a property of the codec, not the backend.
    for codec in COMPRESSIONS:
        stored = {by_key[(b, codec)]["stored_bytes"] for b in BACKEND_NAMES}
        assert len(stored) == 1
    with open(BACKENDS_BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert rows == baseline["footprints"], (
        f"backend footprints drifted: expected {baseline['footprints']}, "
        f"got {rows} — if intentional, regenerate "
        "benchmarks/baseline_backends.json "
        "(python benchmarks/test_bench_index_sizes.py)")


if __name__ == "__main__":
    # Regenerate the committed baseline after an intentional change.
    with open(BACKENDS_BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"footprints": compute_backend_sizes()}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {BACKENDS_BASELINE_PATH}")
