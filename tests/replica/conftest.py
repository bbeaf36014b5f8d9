"""Shared fixtures for the replica-group tests."""

import pytest

from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          Tokenizer, parse_document)
from repro.replica import ReplicaGroup
from repro.retrieval import TrexEngine
from repro.scoring import BM25Scorer, ScoringStats
from repro.summary import IncomingSummary

DOCS = (
    "<a><sec>xml retrieval systems</sec></a>",
    "<a><sec>xml databases and storage</sec></a>",
    "<a><sec>retrieval models ranking</sec></a>",
    "<a><sec>storage engines btree pages</sec></a>",
    "<a><sec>xml query evaluation</sec></a>",
    "<a><sec>ranking functions for retrieval</sec></a>",
)

QUERY = "//sec[about(., xml retrieval)]"


def build_group(num_replicas=2, *, texts=DOCS, **group_kw):
    """A replica group over *num_replicas* engine copies of one corpus.

    Mirrors how ``ShardedEngine`` builds its groups: the leader owns the
    source collection, each follower its own copy (same documents,
    separate tables), and every replica shares the one global scorer.
    """
    tokenizer = Tokenizer(stopwords=())
    collection = Collection.from_documents(
        (parse_document(text, docid, tokenizer=tokenizer)
         for docid, text in enumerate(texts)),
        name="replicated")
    scorer = BM25Scorer(ScoringStats.from_collection(collection))
    engines = []
    for rank in range(num_replicas):
        replica_collection = (
            collection if rank == 0 else
            Collection.from_documents(collection, name=f"replicated.r{rank}"))
        engines.append(TrexEngine(replica_collection,
                                  IncomingSummary(replica_collection),
                                  scorer=scorer, tokenizer=tokenizer))
    return ReplicaGroup(engines, name="group0", **group_kw)


def new_document(group, text, docid=None):
    """Parse *text* against the leader's collection for group ingest."""
    leader = group.leader.engine
    if docid is None:
        docid = leader.collection.next_docid
    return parse_document(text, docid, tokenizer=leader.tokenizer)


def catalog_image(engine):
    """The byte-identity projection of one replica's catalog: every
    segment's identity, base-image bytes and delta-run bytes."""
    catalog = engine.catalog
    image = {}
    for segment in catalog.segments():
        runs = tuple(run.to_bytes() for run in catalog.runs_for(segment))
        image[(segment.segment_id, segment.kind, segment.term)] = (
            catalog.blocks_for(segment).to_bytes(), runs)
    return image


def assert_byte_identical(group):
    """Every follower catalog must mirror the leader's exactly."""
    want = catalog_image(group.leader.engine)
    for replica in group.replicas[1:]:
        got = catalog_image(replica.engine)
        assert got == want, (
            f"replica {replica.index} diverged: "
            f"{sorted(set(got) ^ set(want))}")


@pytest.fixture()
def group():
    return build_group(2)


@pytest.fixture(scope="session")
def ieee_collection():
    return SyntheticIEEECorpus(num_docs=16, seed=77).build()


@pytest.fixture(scope="session")
def ieee_alias():
    return AliasMapping.inex_ieee()


@pytest.fixture(scope="session")
def oracle(ieee_collection, ieee_alias):
    """The single-engine ERA oracle the golden invariant compares to."""
    return TrexEngine(ieee_collection,
                      IncomingSummary(ieee_collection, alias=ieee_alias))
