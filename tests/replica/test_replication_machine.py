"""Replicated writes as a state machine.

Hypothesis drives a three-replica group through any interleaving of
ingest (gap-filling docids included), compaction (forced and by
ratio), warm-up for a paper query, ``install_entries`` /
``drop_segment``, reads through the group and follower ``detach`` /
``attach``.  After every step:

* every attached follower's catalog is byte-identical to the leader's;
* no replica holds a read lease (``inflight == 0``);
* on every attached replica, ERA, TA and Merge at k=5 return the hits
  of a fresh ERA engine over the leader's collection with the same
  scorer (TA and Merge for the queries warmed so far).

A detached follower serves no reads, so it is checked once it has
replayed the log tail on ``attach``.

``REPRO_REPLICA_EXAMPLES`` raises the example count (CI uses 200).
"""

import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          Tokenizer, parse_document)
from repro.replica import ReplicaGroup
from repro.retrieval import TrexEngine
from repro.scoring import BM25Scorer, ScoringStats
from repro.summary import IncomingSummary

from tests.replica.conftest import catalog_image
from tests.shard.conftest import hit_keys

EXAMPLES = int(os.environ.get("REPRO_REPLICA_EXAMPLES", "20"))

ALIAS = AliasMapping.inex_ieee()
POOL = 12
TEXTS = tuple(SyntheticIEEECorpus(num_docs=POOL, seed=5, sections_range=(1, 2),
                                  paragraphs_range=(1, 2)).document_xml(docid)
              for docid in range(POOL))
#: The initial collection leaves docids 2 and 5 free for gap fills.
INITIAL = (0, 1, 3, 4, 6)
QUERIES = tuple(PAPER_QUERIES[qid].nexi for qid in (202, 203, 270))
METHODS = ("era", "ta", "merge")
K = 5


def summary_of(collection):
    return IncomingSummary(collection, alias=ALIAS)


class ReplicationMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        tokenizer = Tokenizer()
        collection = Collection.from_documents(
            parse_document(TEXTS[docid], docid, tokenizer=tokenizer)
            for docid in INITIAL)
        scorer = BM25Scorer(ScoringStats.from_collection(collection))
        # As ShardedEngine builds a group: each replica owns its copy of
        # the collection (same documents), and all share one scorer.
        collections = [collection] + [Collection.from_documents(collection)
                                      for _ in range(2)]
        engines = [TrexEngine(replica, summary_of(replica), scorer=scorer,
                              tokenizer=tokenizer)
                   for replica in collections]
        self.group = ReplicaGroup(engines)
        self.warmed: set[str] = set()
        #: The oracle's answers, recomputed when the leader's epoch moves.
        self.oracle_epoch = -1
        self.oracle_hits: dict[str, list] = {}
        #: Ids of the segments ``install`` put in (``drop`` retires them).
        self.installed: list[int] = []

    @property
    def leader(self):
        return self.group.leader.engine

    def followers(self, attached):
        return [replica.index for replica in self.group.replicas[1:]
                if replica.attached == attached]

    def free_docids(self):
        held = set(self.leader.collection.docids)
        return [docid for docid in range(max(held)) if docid not in held]

    def ingest_text(self, docid):
        self.group.add_document(parse_document(
            TEXTS[docid % POOL], docid, tokenizer=self.leader.tokenizer))

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(skip=st.booleans())
    def ingest(self, skip):
        """Append a document; ``skip`` leaves a docid free below it."""
        self.ingest_text(self.leader.collection.next_docid + skip)

    @precondition(lambda self: self.free_docids())
    @rule(data=st.data())
    def fill_gap(self, data):
        self.ingest_text(data.draw(st.sampled_from(self.free_docids())))

    @rule(force=st.booleans(), ratio=st.sampled_from((0.0, 0.05, 0.5)))
    def compact(self, force, ratio):
        self.group.compact_segments(ratio=ratio, force=force)

    @rule(query=st.sampled_from(QUERIES))
    def warm(self, query):
        missing = self.leader.missing_segments(self.leader.translate(query))
        if missing:
            self.group.warm_segments(missing)
        self.warmed.add(query)

    @precondition(lambda self: list(self.leader.catalog.segments()))
    @rule(data=st.data())
    def install(self, data):
        """Install a copy of a resident list under its own term, so
        later ingests extend the copy too."""
        catalog = self.leader.catalog
        source = data.draw(st.sampled_from(
            sorted(catalog.segments(), key=lambda s: s.segment_id)))
        segment = self.group.install_entries(
            source.kind, source.term, catalog.segment_entries(source),
            scope=source.scope)
        self.installed.append(segment.segment_id)

    @precondition(lambda self: self.installed)
    @rule(data=st.data())
    def drop(self, data):
        segment_id = data.draw(st.sampled_from(self.installed))
        self.installed.remove(segment_id)
        self.group.drop_segment(segment_id)

    @precondition(lambda self: self.warmed)
    @rule(data=st.data(), method=st.sampled_from(METHODS))
    def read(self, data, method):
        query = data.draw(st.sampled_from(sorted(self.warmed)))
        self.group.run_read(lambda engine: engine.evaluate(
            query, k=K, method=method))

    @precondition(lambda self: self.followers(attached=True))
    @rule(data=st.data())
    def detach(self, data):
        self.group.detach(data.draw(st.sampled_from(
            self.followers(attached=True))))

    @precondition(lambda self: self.followers(attached=False))
    @rule(data=st.data())
    def attach(self, data):
        self.group.attach(data.draw(st.sampled_from(
            self.followers(attached=False))))

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def followers_mirror_the_leader(self):
        want = catalog_image(self.leader)
        for index in self.followers(attached=True):
            assert catalog_image(self.group.replicas[index].engine) == want, \
                f"replica {index} diverged"

    @invariant()
    def no_read_is_in_flight(self):
        assert [replica.inflight for replica in self.group.replicas] == \
            [0] * len(self.group.replicas)

    @invariant()
    def every_replica_answers_as_a_fresh_build(self):
        leader = self.leader
        if self.oracle_epoch != leader.epoch:
            oracle = TrexEngine(leader.collection,
                                summary_of(leader.collection),
                                scorer=leader.scorer,
                                tokenizer=leader.tokenizer)
            self.oracle_hits = {query: hit_keys(oracle.evaluate(
                query, k=K, method="era").hits) for query in QUERIES}
            self.oracle_epoch = leader.epoch
        serving = [replica.engine for replica in self.group.replicas
                   if replica.attached]
        for query in QUERIES:
            want = self.oracle_hits[query]
            methods = METHODS if query in self.warmed else ("era",)
            for engine in serving:
                for method in methods:
                    got = hit_keys(engine.evaluate(query, k=K,
                                                   method=method).hits)
                    assert got == want, (query, method)


ReplicationMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestReplication = ReplicationMachine.TestCase
