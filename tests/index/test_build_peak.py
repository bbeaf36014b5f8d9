"""The base build's peak memory follows the index, not the corpus.

``BlockedPostings.rebuild`` and ``BlockedElements.rebuild`` gather each
key's rows as columns (``array('q')`` docids and offsets, or a docid
column beside the documents' own element nodes) and stream them into
the block encoder, so the build never holds a tuple per row.  Under
``tracemalloc``, the peak of each build must stay within a bound of the
bytes the finished index retains: 2.0× on the seed-42 IEEE collection
of 30 documents (a build that gathered every posting as a tuple first
reached 3.6×), and 2.5× at any other size.  The gathered columns are
alive until their key is encoded, so the bound does not fall to 1×.

The size is ``REPRO_BUILD_PEAK_DOCS`` (default 30).  At 120, the
benchmark ledger's corpus size, a tuple-per-posting build reaches 7.1×::

    REPRO_BUILD_PEAK_DOCS=120 PYTHONPATH=src python -m pytest tests/index/test_build_peak.py
"""

import gc
import os
import tracemalloc

import pytest

from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.index import BlockedElements, BlockedPostings
from repro.summary import IncomingSummary

DOCS = int(os.environ.get("REPRO_BUILD_PEAK_DOCS", "30"))
BOUND = 2.0 if DOCS == 30 else 2.5
SEED = 42


@pytest.fixture(scope="module")
def corpus():
    collection = SyntheticIEEECorpus(num_docs=DOCS, seed=SEED).build()
    summary = IncomingSummary(collection, AliasMapping.inex_ieee())
    # Encoders are compiled once per block layout and process; compile
    # them here, so the traced builds measure the build alone.
    first = [collection.document(0)]
    BlockedPostings().rebuild(first)
    BlockedElements().rebuild(first, summary)
    return collection, summary


def traced(build):
    """``(peak, retained)`` bytes of *build*'s allocations, with the
    built index still alive when ``retained`` is read."""
    gc.collect()
    tracemalloc.start()
    try:
        index = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) > 0
    return peak, retained


def test_postings_build_peak_follows_the_index(corpus):
    collection, _summary = corpus

    def build():
        postings = BlockedPostings()
        postings.rebuild(collection)
        return postings

    peak, retained = traced(build)
    assert peak <= BOUND * retained, (
        f"{DOCS} documents: peak {peak} B is {peak / retained:.2f}x "
        f"the {retained} B retained (bound {BOUND}x)")


def test_elements_build_peak_follows_the_index(corpus):
    collection, summary = corpus

    def build():
        elements = BlockedElements()
        elements.rebuild(collection, summary)
        return elements

    peak, retained = traced(build)
    assert peak <= BOUND * retained, (
        f"{DOCS} documents: peak {peak} B is {peak / retained:.2f}x "
        f"the {retained} B retained (bound {BOUND}x)")
