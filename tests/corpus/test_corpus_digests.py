"""Parsed corpora, pinned against a recorded fixture.

``data/corpus_digests.json`` holds the SHA-256 of everything the parser
and the collection layer hand to the indexes, for seed-42 synthetic IEEE
and Wikipedia collections of 30 documents, under the default tokenizer
and a stemming one:

* each document's element extents (tag, start, end, attributes in
  document order), its ``(term, position)`` rows and its position count;
* the collection's statistics (document and collection frequency per
  term, totals, average element length);
* the bytes of every file ``dump_collection`` writes;
* the same per-document digests and statistics for ``load_collection``
  of that dump.

A change that claims to parse as before (a faster parser, a new token
layout) must pass this unchanged.  Re-record only when the data model
changes on purpose, and name that one cause where the new file is
committed::

    PYTHONPATH=src python tests/corpus/test_corpus_digests.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.corpus import (SyntheticIEEECorpus, SyntheticWikipediaCorpus,
                          Tokenizer)
from repro.corpus.loader import dump_collection, load_collection

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "corpus_digests.json")
CORPORA = {"ieee": SyntheticIEEECorpus, "wiki": SyntheticWikipediaCorpus}
TOKENIZERS = {"default": {}, "stem3": {"stem": True, "min_length": 3}}
NUM_DOCS = 30
SEED = 42


def _sha(value) -> str:
    data = json.dumps(value, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _documents(collection) -> dict:
    return {str(document.docid): {
        "extents": _sha([[node.tag, node.start_pos, node.end_pos,
                          list(node.attributes.items())]
                         for node in document.elements()]),
        "rows": _sha(list(zip(document.terms, document.positions))),
        "positions": document.position_count,
    } for document in collection}


def _stats(collection) -> dict:
    stats = collection.stats
    return {"df": _sha(sorted(stats.document_frequency.items())),
            "cf": _sha(sorted(stats.collection_frequency.items())),
            "totals": [stats.num_documents, stats.num_elements,
                       stats.total_tokens, stats.total_positions,
                       stats.vocabulary_size],
            "avg_element_length": repr(stats.average_element_length)}


def collect_cell(kind: str, tokenizer: str) -> dict:
    """The digests of one (collection, tokenizer) cell."""
    options = TOKENIZERS[tokenizer]
    collection = CORPORA[kind](num_docs=NUM_DOCS, seed=SEED).build(
        Tokenizer(**options))
    with tempfile.TemporaryDirectory() as directory:
        files = {}
        for path in dump_collection(collection, directory):
            with open(path, "rb") as handle:
                files[os.path.basename(path)] = hashlib.sha256(
                    handle.read()).hexdigest()
        reloaded = load_collection(directory, Tokenizer(**options))
    return {"documents": _documents(collection),
            "stats": _stats(collection),
            "dump": files,
            "load": {"documents": _documents(reloaded),
                     "stats": _stats(reloaded)}}


def collect() -> dict:
    return {f"{kind}/{tokenizer}": collect_cell(kind, tokenizer)
            for kind in CORPORA for tokenizer in TOKENIZERS}


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("tokenizer", sorted(TOKENIZERS))
@pytest.mark.parametrize("kind", sorted(CORPORA))
def test_parse_is_as_recorded(recorded, kind, tokenizer):
    cell = f"{kind}/{tokenizer}"
    got = collect_cell(kind, tokenizer)
    want = recorded[cell]
    assert list(got) == list(want), cell
    for part in want:
        assert got[part] == want[part], f"{cell}: {part}"


def test_the_fixture_covers_every_cell(recorded):
    assert sorted(recorded) == sorted(f"{kind}/{tokenizer}"
                                      for kind in CORPORA
                                      for tokenizer in TOKENIZERS)
    for cell in recorded.values():
        assert len(cell["documents"]) == NUM_DOCS
        assert len(cell["dump"]) == NUM_DOCS
        # A reload keeps every term in its element but may shift positions.
        assert cell["load"]["stats"]["df"] == cell["stats"]["df"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1)
        handle.write("\n")
