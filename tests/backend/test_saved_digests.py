"""``save_indexes`` output, pinned per backend against a recorded fixture.

``data/saved_digests.json`` holds, for every storage backend (pager,
sqlite, mmap) under ``none`` and ``zlib`` block compression, what
``TrexEngine.save_indexes`` publishes for a seed-42 synthetic IEEE
collection of 30 documents with universal RPLs and ERPLs for the IEEE
paper queries: per store (``base/``, ``catalog/``) the set of blob
names and each blob's SHA-256.  Blobs are read back through the
backend's own ``names()`` / ``read()``, so the pin is the blob format a
loader sees, not the container file around it (a sqlite page layout or
an mmap directory may change without changing a blob).

A change that claims to leave the saved format alone must pass this
unchanged.  The ``zlib`` blobs are those of the zlib library Python
links; its output is fixed for a given version.  Re-record only when
the saved format changes on purpose, and name that one cause where the
new file is committed::

    PYTHONPATH=src python tests/backend/test_saved_digests.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.backend import BACKEND_NAMES, COMPRESSIONS, make_backend
from repro.bench import PAPER_QUERIES
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "saved_digests.json")
STORES = ("base", "catalog")
NUM_DOCS = 30
SEED = 42


def collect_cell(backend: str, compression: str, directory: str) -> dict:
    """Every published blob of one (backend, compression) save, by store."""
    collection = SyntheticIEEECorpus(num_docs=NUM_DOCS, seed=SEED).build()
    engine = TrexEngine(collection,
                        IncomingSummary(collection, AliasMapping.inex_ieee()),
                        backend=backend, compression=compression)
    for qid in sorted(PAPER_QUERIES):
        if PAPER_QUERIES[qid].collection == "ieee":
            engine.materialize_for_query(PAPER_QUERIES[qid].nexi)
    engine.save_indexes(directory)
    cell = {}
    for store_name in STORES:
        with make_backend(backend, os.path.join(directory, store_name),
                          mode="r") as store:
            cell[store_name] = {
                name: hashlib.sha256(store.read(name)).hexdigest()
                for name in store.names()}
    return cell


def collect() -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        return {f"{backend}/{compression}": collect_cell(
                    backend, compression,
                    os.path.join(scratch, f"{backend}-{compression}"))
                for backend in BACKEND_NAMES for compression in COMPRESSIONS}


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("compression", COMPRESSIONS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_saved_blobs_are_as_recorded(recorded, backend, compression,
                                     tmp_path):
    cell = f"{backend}/{compression}"
    got = collect_cell(backend, compression, str(tmp_path / "idx"))
    want = recorded[cell]
    assert sorted(got) == sorted(want), cell
    for store_name in want:
        assert sorted(got[store_name]) == sorted(want[store_name]), (
            f"{cell} {store_name}: blob names")
        assert got[store_name] == want[store_name], (
            f"{cell} {store_name}: blob digests")


def test_the_fixture_covers_every_cell(recorded):
    assert sorted(recorded) == sorted(f"{backend}/{compression}"
                                      for backend in BACKEND_NAMES
                                      for compression in COMPRESSIONS)
    for cell in recorded.values():
        assert sorted(cell) == sorted(STORES)
        assert sorted(cell["base"]) == ["elements.blk", "postings.blk"]
        assert "segments.tsv" in cell["catalog"]
    # Every backend stores the same blobs: only the container differs.
    for compression in COMPRESSIONS:
        cells = [recorded[f"{backend}/{compression}"]
                 for backend in BACKEND_NAMES]
        assert all(cell == cells[0] for cell in cells)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1)
        handle.write("\n")
