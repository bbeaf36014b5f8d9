"""The columnar acceptance matrix and its entry-at-a-time twin.

Columnar matrix: every strategy (ERA / TA / Merge) on the batch
decode+score path must reproduce the single-engine ERA oracle
byte-identically across k x shard-count x replica-count.

Shim matrix: with the strategies forced back to one entry per call — a
scalar ``TaSession.step`` driven by ``next_entries(1)`` and every
scorer's ``score_block`` replaced by the generic per-entry fallback —
the same goldens must still hold: batch granularity changes no answers.
(Merge reads each range in bulk and has no per-entry twin; its loop is
held to the reference in ``tests/retrieval/test_merge_reference.py``.)
"""

import pytest

from repro.retrieval.ta import TaSession, _Candidate
from repro.scoring import BM25Scorer, ElementScorer, LMImpactScorer, TfIdfScorer
from repro.shard import ShardedEngine

from tests.shard.conftest import hit_keys
from tests.warm import warm

QUERIES = (
    "//article[about(., xml)]//sec[about(., retrieval)]",
    "//sec[about(., query evaluation)]",
)
KS = (1, 10, 100)
SHARD_COUNTS = (1, 2, 4)
REPLICA_COUNTS = (1, 2)
METHODS = ("era", "ta", "merge")


@pytest.fixture(scope="module")
def engines(ieee_collection, ieee_alias):
    """One sharded engine per (shards, replicas) cell, built once, with
    the lists TA and Merge read."""
    engines = {(shards, replicas): ShardedEngine(ieee_collection, shards,
                                                 alias=ieee_alias,
                                                 replicas=replicas)
               for shards in SHARD_COUNTS
               for replicas in REPLICA_COUNTS}
    for engine in engines.values():
        for query in QUERIES:
            warm(engine, query)
    return engines


@pytest.fixture(scope="module")
def goldens(oracle):
    """Columnar-path oracle answers, computed before any patching."""
    return {(query, k): hit_keys(oracle.evaluate(query, k=k,
                                                 method="era").hits)
            for query in QUERIES for k in KS}


def _assert_matrix_matches(engines, goldens, label):
    for (query, k), want in goldens.items():
        for (shards, replicas), engine in engines.items():
            for method in METHODS:
                got = hit_keys(engine.evaluate(query, k=k,
                                               method=method).hits)
                assert got == want, (
                    f"[{label}] divergence: {query!r} k={k} N={shards} "
                    f"R={replicas} method={method}")


def test_columnar_matrix_matches_era_oracle(engines, goldens):
    _assert_matrix_matches(engines, goldens, "columnar")


# ----------------------------------------------------------------------
# The entry-level shim twin.
# ----------------------------------------------------------------------
def _scalar_step(self):
    """The pre-refactor entry-at-a-time TA loop, on the session's
    candidate layout (a list is bit ``1 << j`` of ``seen``)."""
    if self.finished:
        return False
    while True:
        progressed = False
        for index, (term, iterator) in enumerate(self.iterators.items()):
            if iterator.exhausted:
                continue
            entries = iterator.next_entries(1)
            if not entries:
                continue
            (entry,) = entries
            progressed = True
            key = entry.element_key()
            candidate = self.candidates.get(key)
            if candidate is None:
                candidate = self.candidates[key] = _Candidate(
                    sid=entry.sid, length=entry.length)
            candidate.worst += self.weights[term] * entry.score
            candidate.seen |= 1 << index
            self.cost_model.score_combine()
            self.heap.offer(candidate.worst, key)
            self._accesses_since_check += 1

        if not progressed:
            self.finished = True
            return False
        if self._accesses_since_check >= self.batch_size:
            self._accesses_since_check = 0
            if self._should_stop():
                self.early_stop = True
                self.finished = True
                return False
            return True


def test_shim_matrix_matches_columnar_goldens(monkeypatch, engines, goldens):
    with monkeypatch.context() as patched:
        patched.setattr(TaSession, "step", _scalar_step)
        for scorer_cls in (BM25Scorer, LMImpactScorer, TfIdfScorer):
            patched.setattr(scorer_cls, "score_block",
                            ElementScorer.score_block)
        _assert_matrix_matches(engines, goldens, "shim")


def test_shim_matrix_covers_delta_runs(monkeypatch, ieee_alias):
    """Ingesting after warm-up routes reads through the k-way-merged
    delta path; the shim matrix must hold there too."""
    from repro.corpus import SyntheticIEEECorpus
    from repro.retrieval import TrexEngine
    from repro.summary import IncomingSummary

    query, k = QUERIES[0], 10
    extra = ("<article><sec>incremental xml retrieval delta "
             "evaluation</sec></article>")

    collection = SyntheticIEEECorpus(num_docs=8, seed=5).build()
    oracle_engine = TrexEngine(collection,
                               IncomingSummary(collection, alias=ieee_alias))
    oracle_engine.evaluate(query, k=k, method="era")  # warm the segments
    oracle_engine.add_document(extra)
    want = hit_keys(oracle_engine.evaluate(query, k=k, method="era").hits)

    shard_collection = SyntheticIEEECorpus(num_docs=8, seed=5).build()
    sharded = ShardedEngine(shard_collection, 2, alias=ieee_alias, replicas=2)
    warm(sharded, query)
    sharded.add_document(extra)
    assert sum(shard.engine.catalog.delta_snapshot()["delta_runs"]
               for shard in sharded.shards) > 0
    with monkeypatch.context() as patched:
        patched.setattr(TaSession, "step", _scalar_step)
        for method in METHODS:
            got = hit_keys(sharded.evaluate(query, k=k, method=method).hits)
            assert got == want, f"delta shim divergence: method={method}"
