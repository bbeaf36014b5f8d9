"""Shared fixtures for the serving-layer tests."""

import pytest

from repro.corpus import Collection, Tokenizer, parse_document
from repro.retrieval import TrexEngine
from repro.service import QueryService, ServiceConfig
from repro.summary import IncomingSummary

DOCS = (
    "<a><sec>xml retrieval systems</sec></a>",
    "<a><sec>xml databases and storage</sec></a>",
    "<a><sec>retrieval models ranking</sec></a>",
    "<a><sec>storage engines btree pages</sec></a>",
)


def build_engine(*texts, **settings):
    tokenizer = Tokenizer(stopwords=())
    collection = Collection.from_documents(
        parse_document(text, docid, tokenizer=tokenizer)
        for docid, text in enumerate(texts))
    return TrexEngine(collection, IncomingSummary(collection),
                      tokenizer=tokenizer, **settings)


@pytest.fixture()
def engine():
    return build_engine(*DOCS)


@pytest.fixture()
def service(engine):
    config = ServiceConfig(workers=4, queue_depth=32, cache_capacity=64,
                           autopilot_interval=None,
                           autopilot_min_observations=2)
    svc = QueryService(engine, config)
    yield svc
    svc.close()
