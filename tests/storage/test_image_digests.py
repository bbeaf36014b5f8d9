"""Stored bytes, pinned against a recorded fixture.

``data/image_digests.json`` holds the SHA-256 of every byte image an
engine stores: ``BlockedElements.to_bytes()``, ``BlockedPostings.to_bytes()``
and every catalog run (base and delta runs, in append order).  Images
are taken for seed-42 synthetic IEEE and Wikipedia collections of 30
documents, under ``none`` and ``zlib`` block compression, with universal
RPLs and ERPLs for that collection's paper queries, at three points:
after the build, after three ingests, and after
``compact_segments(ratio=0.0)``.

A change that claims to leave stored bytes alone (a refactor, a faster
encoder) must pass this unchanged.  The ``zlib`` images are those of the
zlib library Python links; its output is fixed for a given version.
Re-record only when the stored format changes on purpose, and name that
one cause where the new file is committed::

    PYTHONPATH=src python tests/storage/test_image_digests.py
"""

import hashlib
import json
import os

import pytest

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus)
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "image_digests.json")
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}
COMPRESSIONS = ("none", "zlib")
NUM_DOCS = 30
INGESTS = 3
SEED = 42


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _images(engine: TrexEngine) -> dict:
    runs = {}
    for segment in sorted(engine.catalog.segments(),
                          key=lambda segment: segment.segment_id):
        for index, run in enumerate(engine.catalog.runs_for(segment)):
            runs[f"{segment.segment_id} {segment.kind} {segment.term} "
                 f"run{index}"] = _sha(run.to_bytes())
    return {"elements": _sha(engine.blocked_elements.to_bytes()),
            "postings": _sha(engine.blocked_postings.to_bytes()),
            "runs": runs}


def collect_cell(kind: str, compression: str) -> dict:
    """The images of one (collection, compression) cell, stage by stage."""
    corpus_class, alias = CORPORA[kind]
    corpus = corpus_class(num_docs=NUM_DOCS, seed=SEED)
    collection = corpus.build()
    engine = TrexEngine(collection, IncomingSummary(collection, alias()),
                        compression=compression)
    for qid in sorted(PAPER_QUERIES):
        if PAPER_QUERIES[qid].collection == kind:
            engine.materialize_for_query(PAPER_QUERIES[qid].nexi)
    stages = {"build": _images(engine)}
    for docid in range(NUM_DOCS, NUM_DOCS + INGESTS):
        engine.add_document(corpus.document_xml(docid))
    stages["ingest"] = _images(engine)
    engine.compact_segments(ratio=0.0)
    stages["compact"] = _images(engine)
    return stages


def collect() -> dict:
    return {f"{kind}/{compression}": collect_cell(kind, compression)
            for kind in CORPORA for compression in COMPRESSIONS}


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("compression", COMPRESSIONS)
@pytest.mark.parametrize("kind", sorted(CORPORA))
def test_stored_bytes_are_as_recorded(recorded, kind, compression):
    cell = f"{kind}/{compression}"
    got = collect_cell(kind, compression)
    want = recorded[cell]
    assert list(got) == list(want), cell
    for stage in want:
        assert got[stage] == want[stage], f"{cell} after {stage}"


def test_the_fixture_covers_every_cell(recorded):
    assert sorted(recorded) == sorted(f"{kind}/{compression}"
                                      for kind in CORPORA
                                      for compression in COMPRESSIONS)
    for stages in recorded.values():
        # Ingest appends delta runs; compaction folds them away again.
        assert len(stages["ingest"]["runs"]) > len(stages["build"]["runs"])
        assert len(stages["compact"]["runs"]) == len(stages["build"]["runs"])


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1)
        handle.write("\n")
