"""Shared fixtures for the storage-backend tests."""

import pytest

from repro.corpus import SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary

QUERIES = (
    ("//sec[about(., information)]", 5),
    ("//article[about(., retrieval)]", 3),
    ("//p[about(., algorithm)]", 4),
)


@pytest.fixture(scope="session")
def collection():
    return SyntheticIEEECorpus(num_docs=12, seed=9).build()


def make_engine(collection, backend="pager", compression="none"):
    """An engine holding the universal RPLs and ERPLs ``golden_answers``
    reads: evaluation never builds them."""
    engine = TrexEngine(collection, IncomingSummary(collection),
                        backend=backend, compression=compression)
    for nexi, _k in QUERIES:
        engine.materialize_for_query(nexi)
    return engine


def golden_answers(engine):
    """Hit projections per (query, method) — the byte-identity surface."""
    answers = {}
    for nexi, k in QUERIES:
        for method in ("era", "ta", "merge"):
            result = engine.evaluate(nexi, k=k, method=method, mode="flat")
            answers[(nexi, method)] = [
                (hit.element_key(), round(hit.score, 9))
                for hit in result.hits]
    return answers
