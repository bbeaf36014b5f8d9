"""The WAND acceptance matrix.

Document-at-a-time Block-Max-WAND is the fourth first-class strategy;
its contract is the same golden invariant the rest of the stack is
built against: byte-identical top-k (element identities, scores,
order) to the single-engine ERA oracle at every k, shard count,
replica count, storage backend and codec — including the k-way-merged
delta-run states a post-warm-up ingest leaves behind.  Pivoting,
shallow block-max refinement and the distributed global-floor feed may
only change *cost*, never *answers*.
"""

import pytest

from repro.backend import BACKEND_NAMES, COMPRESSIONS
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

from tests.warm import warm

QUERIES = (
    "//article[about(., xml)]//sec[about(., retrieval)]",
    "//article[about(., database systems)]",
    "//sec[about(., query evaluation)]",
)
KS = (1, 10, 100)
SHARD_COUNTS = (1, 2, 4)
REPLICA_COUNTS = (1, 2)
BACKEND_MATRIX = [(backend, compression)
                  for backend in BACKEND_NAMES
                  for compression in COMPRESSIONS]


def with_erpls(engine):
    """*engine* holding the universal ERPLs WAND reads for QUERIES."""
    for query in QUERIES:
        warm(engine, query, ("erpl",))
    return engine


def hit_keys(hits):
    """The byte-identity projection: (element identity, score)."""
    return [(hit.element_key(), round(hit.score, 9)) for hit in hits]


@pytest.fixture(scope="module")
def alias():
    return AliasMapping.inex_ieee()


@pytest.fixture(scope="module")
def collection():
    return SyntheticIEEECorpus(num_docs=16, seed=77).build()


@pytest.fixture(scope="module")
def oracle(collection, alias):
    return with_erpls(TrexEngine(collection,
                                 IncomingSummary(collection, alias=alias)))


@pytest.fixture(scope="module")
def goldens(oracle):
    return {(query, k, mode): hit_keys(
                oracle.evaluate(query, k=k, method="era", mode=mode).hits)
            for query in QUERIES for k in KS for mode in ("flat", "nexi")}


@pytest.fixture(scope="module")
def sharded_engines(collection, alias):
    """One sharded engine per (shards, replicas) cell, built once."""
    return {(shards, replicas): with_erpls(ShardedEngine(collection, shards,
                                                         alias=alias,
                                                         replicas=replicas))
            for shards in SHARD_COUNTS
            for replicas in REPLICA_COUNTS}


# ----------------------------------------------------------------------
# Shards × replicas × k (both evaluation modes).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("k", KS)
def test_wand_matches_era_oracle_across_shards_and_replicas(
        query, k, sharded_engines, goldens):
    for mode in ("flat", "nexi"):
        want = goldens[(query, k, mode)]
        for (shards, replicas), engine in sharded_engines.items():
            got = hit_keys(engine.evaluate(query, k=k, method="wand",
                                           mode=mode).hits)
            assert got == want, (
                f"divergence: {query!r} k={k} mode={mode} N={shards} "
                f"R={replicas}")


# ----------------------------------------------------------------------
# Storage backends × codecs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(("backend", "compression"), BACKEND_MATRIX)
def test_wand_matches_era_oracle_across_backends(backend, compression,
                                                 collection, alias, goldens):
    engine = with_erpls(TrexEngine(
        collection, IncomingSummary(collection, alias=alias),
        backend=backend, compression=compression))
    for query in QUERIES:
        for k in KS:
            got = hit_keys(engine.evaluate(query, k=k, method="wand",
                                           mode="flat").hits)
            assert got == goldens[(query, k, "flat")], (
                f"divergence: {query!r} k={k} backend={backend} "
                f"codec={compression}")


@pytest.mark.parametrize(("backend", "compression"),
                         [("sqlite", "zlib"), ("mmap", "none")])
def test_sharded_wand_on_non_default_backends(backend, compression,
                                              collection, alias, goldens):
    engine = with_erpls(ShardedEngine(collection, 2, alias=alias, replicas=2,
                                      backend=backend,
                                      compression=compression))
    for query in QUERIES:
        for k in KS:
            got = hit_keys(engine.evaluate(query, k=k, method="wand",
                                           mode="flat").hits)
            assert got == goldens[(query, k, "flat")], (
                f"divergence: {query!r} k={k} backend={backend} "
                f"codec={compression}")


# ----------------------------------------------------------------------
# Post-ingest delta-run states.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compression", COMPRESSIONS)
def test_wand_covers_delta_runs(compression, alias):
    """Ingesting after warm-up routes WAND's streams through the
    k-way-merged delta path (merged bound = max over live runs)."""
    query, k = QUERIES[0], 10
    extra = ("<article><sec>incremental xml retrieval delta "
             "evaluation</sec></article>")

    collection = SyntheticIEEECorpus(num_docs=8, seed=5).build()
    oracle_engine = TrexEngine(collection,
                               IncomingSummary(collection, alias=alias))
    oracle_engine.evaluate(query, k=k, method="era")  # warm the segments
    oracle_engine.add_document(extra)
    want = hit_keys(oracle_engine.evaluate(query, k=k, method="era").hits)

    single_collection = SyntheticIEEECorpus(num_docs=8, seed=5).build()
    single = TrexEngine(single_collection,
                        IncomingSummary(single_collection, alias=alias),
                        compression=compression)
    warm(single, query, ("erpl",))  # build, then ingest
    single.add_document(extra)
    got = hit_keys(single.evaluate(query, k=k, method="wand").hits)
    assert got == want, f"single-engine delta divergence ({compression})"

    shard_collection = SyntheticIEEECorpus(num_docs=8, seed=5).build()
    sharded = ShardedEngine(shard_collection, 2, alias=alias, replicas=2,
                            compression=compression)
    warm(sharded, query, ("erpl",))
    sharded.add_document(extra)
    got = hit_keys(sharded.evaluate(query, k=k, method="wand").hits)
    assert got == want, f"sharded delta divergence ({compression})"


# ----------------------------------------------------------------------
# Strategy plumbing: telemetry and selection.
# ----------------------------------------------------------------------
def test_wand_reports_daat_telemetry(oracle):
    result = oracle.evaluate(QUERIES[0], k=10, method="wand", mode="flat")
    assert result.stats.method == "wand"
    assert result.stats.docs_evaluated > 0
    assert result.stats.docs_evaluated >= len(result.hits)


def test_sharded_wand_merges_daat_telemetry(sharded_engines):
    engine = sharded_engines[(4, 2)]
    result = engine.evaluate(QUERIES[0], k=10, method="wand", mode="flat")
    assert result.stats.method == "wand"
    assert result.stats.docs_evaluated > 0
    assert result.stats.shards_probed > 0


def test_auto_selects_wand_for_multi_term_large_k(oracle):
    """WAND is a forced strategy only: ``auto`` reads the stored index,
    and an ERPL is Merge's at every k and term count."""
    translated = oracle.translate(QUERIES[0])
    assert oracle.choose_method(translated, "flat") == "merge"
    result = oracle.evaluate(QUERIES[0], k=100, method="auto", mode="flat")
    assert result.stats.method == "merge"
