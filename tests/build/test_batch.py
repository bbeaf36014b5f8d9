"""The one builder (ERA over the base indexes): equivalence with the
per-document tree walk — its independent oracle — scope filtering, pass
accounting, and the one-document pass that produces ingest's delta
rows."""

import os

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.build import BuildPlan, BuildPlanner, BuildTarget, compute_entries_batch
from repro.build.batch import TERM_CHUNK
from repro.corpus import AliasMapping, Collection, SyntheticIEEECorpus, Tokenizer, parse_document
from repro.corpus.loader import node_to_xml
from repro.index.rpl import encode_run
from repro.retrieval import TrexEngine
from repro.storage.cost import CostModel
from repro.summary import IncomingSummary, TagSummary

from .tree_walk import compute_document_entries

TEXTS = (
    "<a><sec>xml retrieval systems</sec><sec>database theory</sec></a>",
    "<a><sec>xml database</sec><par>retrieval of xml data</par></a>",
    "<a><sec>retrieval models for xml</sec></a>",
    "<a><par>database systems</par></a>",
)


def build_engine():
    tokenizer = Tokenizer(stopwords=())
    collection = Collection.from_documents(
        parse_document(text, docid, tokenizer=tokenizer)
        for docid, text in enumerate(TEXTS))
    return TrexEngine(collection, IncomingSummary(collection),
                      tokenizer=tokenizer)


def walked_entries(engine, terms, sids=None):
    """The oracle: ``compute_document_entries`` over every document,
    concatenated per term, scope-filtered and re-sorted."""
    terms = list(terms)
    rows = {term: [] for term in terms}
    for document in engine.collection:
        delta = compute_document_entries(document, engine.summary, terms,
                                         engine.scorer)
        for term in terms:
            rows[term].extend(entry for entry in delta[term]
                              if sids is None or entry.sid in sids)
    for term in terms:
        rows[term].sort(key=lambda e: (-e.score, e.docid, e.endpos))
    return rows


class TestBatchEquivalence:
    def test_batch_entries_equal_per_term_entries(self):
        engine = build_engine()
        terms = ["xml", "retrieval", "database"]
        targets = [BuildTarget("rpl", term) for term in terms]
        batch = compute_entries_batch(engine.blocked_elements,
                                      engine.blocked_postings,
                                      targets, engine.scorer)
        reference = walked_entries(engine, terms)
        for target in targets:
            assert batch.entries[target] == reference[target.term]

    def test_one_collection_scan_for_many_targets(self):
        engine = build_engine()
        targets = [BuildTarget(kind, term)
                   for term in ("xml", "retrieval", "database", "systems")
                   for kind in ("rpl", "erpl")]
        batch = engine.compute_entries(targets)
        assert batch.collection_scans == 1
        assert batch.entry_total() > 0

    def test_encoded_bytes_match_catalog_segments(self):
        engine = build_engine()
        batch = engine.compute_entries(
            [BuildTarget("rpl", "xml"), BuildTarget("erpl", "xml")])
        _report, (rpl_seg, erpl_seg) = engine.build_plan(BuildPlan((
            BuildTarget("rpl", "xml"), BuildTarget("erpl", "xml"))))
        rpl_run = encode_run("rpl", batch.entries[BuildTarget("rpl", "xml")],
                             block_size=engine.block_size)
        erpl_run = encode_run("erpl",
                              batch.entries[BuildTarget("erpl", "xml")],
                              block_size=engine.block_size)
        assert rpl_run.to_bytes() == \
            engine.catalog.blocks_for(rpl_seg).to_bytes()
        assert erpl_run.to_bytes() == \
            engine.catalog.blocks_for(erpl_seg).to_bytes()

    def test_scoped_target_restricts_sids(self):
        engine = build_engine()
        universal = BuildTarget("rpl", "xml")
        batch = engine.compute_entries([universal])
        sids = {entry.sid for entry in batch.entries[universal]}
        chosen = frozenset(list(sorted(sids))[:1])
        scoped = BuildTarget("rpl", "xml", scope=chosen)
        scoped_batch = engine.compute_entries([scoped])
        rows = scoped_batch.entries[scoped]
        assert rows
        assert {entry.sid for entry in rows} <= chosen
        assert rows == walked_entries(engine, ["xml"], chosen)["xml"]

    def test_charged_build_meters_private_model(self):
        engine = build_engine()
        model = CostModel()
        engine.compute_entries([BuildTarget("rpl", "xml")], cost_model=model)
        assert model.total_cost > 0.0
        assert engine.cost_model.total_cost == 0.0


#: CI's build-smoke job raises this (see .github/workflows/ci.yml).
EXAMPLES = int(os.environ.get("REPRO_BUILD_EXAMPLES", "20"))


class TestOneBuilderProperty:
    """ERA over the base indexes against the per-document tree walk, on
    generated corpora, scopes and term sets either side of the chunk
    boundary — before and after an ingest."""

    @given(seed=st.integers(0, 10_000), aliased=st.booleans(),
           term_count=st.sampled_from(
               [1, TERM_CHUNK - 1, TERM_CHUNK, TERM_CHUNK + 1, 70]),
           data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_era_built_entries_equal_the_walked_documents(
            self, seed, aliased, term_count, data):
        collection = SyntheticIEEECorpus(num_docs=4, seed=seed).build()
        alias = (AliasMapping.inex_ieee() if aliased
                 else AliasMapping.identity())
        engine = TrexEngine(collection, IncomingSummary(collection, alias))
        assert engine.summary.is_retrieval_safe()
        vocabulary = engine.blocked_postings.keys()
        absent = data.draw(st.integers(0, min(3, term_count - 1)))
        terms = data.draw(st.lists(st.sampled_from(vocabulary),
                                   min_size=term_count - absent,
                                   max_size=term_count - absent,
                                   unique=True))
        terms += [f"absent{index}term" for index in range(absent)]
        sids = engine.blocked_elements.keys()
        clause = engine.translate("//sec[about(., x)]").clauses[0].sids
        subset = frozenset(data.draw(st.sets(st.sampled_from(sids))))
        scopes = data.draw(st.lists(
            st.sampled_from([None, clause, subset]), min_size=1, unique=True))

        def check():
            targets = [BuildTarget(kind, term, scope=scope)
                       for term in terms for scope in scopes
                       for kind in ("rpl", "erpl")]
            built = engine.compute_entries(targets)
            assert built.collection_scans == -(-len(terms) // TERM_CHUNK)
            for scope in scopes:
                walked = walked_entries(engine, terms, scope)
                for term in terms:
                    for kind in ("rpl", "erpl"):
                        rows = built.entries[BuildTarget(kind, term, scope)]
                        assert rows == walked[term], (kind, term, scope)
                        assert (encode_run(kind, rows).to_bytes()
                                == encode_run(kind, walked[term]).to_bytes())

        check()
        # A build after an ingest sees the extended base indexes.
        extra = SyntheticIEEECorpus(num_docs=1, seed=seed + 1).build()
        added = engine.add_document(node_to_xml(extra.document(0).root))
        assert added.docid == len(collection) - 1
        check()


#: The summaries a restricted pass is drawn over: two retrieval-safe
#: ones and the tag summary, whose extents nest on this corpus.
SUMMARIES = {
    "incoming": lambda c: IncomingSummary(c, AliasMapping.identity()),
    "incoming-ieee": lambda c: IncomingSummary(c, AliasMapping.inex_ieee()),
    "tag-ieee": lambda c: TagSummary(c, alias=AliasMapping.inex_ieee()),
}


class TestRestrictedPassProperty:
    """The one-document pass an ingest runs returns the docid slice of
    the unrestricted pass, on every summary — an unsafe one included —
    for the first, a middle and the last docid, and for a docid some
    term never occurs in."""

    @given(seed=st.integers(0, 10_000), num_docs=st.integers(3, 6),
           summary=st.sampled_from(sorted(SUMMARIES)),
           term_count=st.sampled_from([1, 3, TERM_CHUNK + 1]),
           pick=st.sampled_from(["first", "middle", "last", "absent"]),
           data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_restricted_pass_equals_the_docid_slice(
            self, seed, num_docs, summary, term_count, pick, data):
        collection = SyntheticIEEECorpus(num_docs=num_docs, seed=seed).build()
        engine = TrexEngine(collection, SUMMARIES[summary](collection))
        terms = data.draw(st.lists(
            st.sampled_from(engine.blocked_postings.keys()),
            min_size=term_count, max_size=term_count, unique=True))
        docids = [document.docid for document in collection]
        if pick == "absent":
            holders = [{document.docid for document in collection
                        if term in document.terms}
                       for term in terms]
            lacking = sorted(docid for docid in docids
                             if any(docid not in held for held in holders))
            assume(lacking)
            docid = data.draw(st.sampled_from(lacking))
        else:
            docid = {"first": docids[0], "middle": docids[len(docids) // 2],
                     "last": docids[-1]}[pick]
        clause = engine.translate("//sec[about(., x)]").clauses[0].sids
        subset = frozenset(data.draw(st.sets(st.sampled_from(
            engine.blocked_elements.keys()))))
        scopes = data.draw(st.lists(
            st.sampled_from([None, clause, subset]), min_size=1, unique=True))
        targets = [BuildTarget(kind, term, scope=scope)
                   for term in terms for scope in scopes
                   for kind in ("rpl", "erpl")]
        full = engine.compute_entries(targets)
        restricted = engine.compute_entries(targets, docid=docid)
        assert restricted.collection_scans == full.collection_scans
        for target in targets:
            assert restricted.entries[target] == [
                entry for entry in full.entries[target]
                if entry.docid == docid], (target, docid)


class TestDocumentEntries:
    def test_matches_batch_restricted_to_one_document(self):
        engine = build_engine()
        document = engine.collection.document(1)
        result = compute_document_entries(document, engine.summary,
                                          ["xml", "retrieval"], engine.scorer)
        target = BuildTarget("rpl", "xml")
        batch = engine.compute_entries([target])
        expected = [entry for entry in batch.entries[target]
                    if entry.docid == 1]
        assert sorted(result["xml"]) == sorted(expected)
        restricted = engine.compute_entries([target], docid=1)
        assert restricted.entries[target] == result["xml"]

    def test_unmentioned_term_yields_empty_list(self):
        engine = build_engine()
        target = BuildTarget("rpl", "xml")
        # Document 3 holds no 'xml' occurrence.
        assert engine.compute_entries([target], docid=3).entries[target] == []

    def test_gap_filled_docid_gets_its_own_rows(self):
        """A docid below the maximum: the pass reads the fragments and
        blocks in the middle of each list, not the tail."""
        tokenizer = Tokenizer(stopwords=())
        documents = [parse_document(text, docid, tokenizer=tokenizer)
                     for docid, text in enumerate(TEXTS)]
        gap = documents.pop(1)
        collection = Collection.from_documents(documents)
        engine = TrexEngine(collection, IncomingSummary(collection),
                            tokenizer=tokenizer)
        targets = [BuildTarget(kind, term) for term in ("xml", "retrieval")
                   for kind in ("rpl", "erpl")]
        for target in targets:
            engine.build_segments([target])
        engine.add_document(TEXTS[1], docid=1)
        walked = compute_document_entries(gap, engine.summary,
                                          ["xml", "retrieval"], engine.scorer)
        restricted = engine.compute_entries(targets, docid=1).entries
        full = engine.compute_entries(targets).entries
        for target in targets:
            assert restricted[target] == walked[target.term]
            assert restricted[target] == [entry for entry in full[target]
                                          if entry.docid == 1]
        # RPL runs decode in score order, so sort both sides.
        catalog = engine.catalog
        for segment in catalog.segments():
            stored = sorted(entry for entry in catalog.segment_entries(segment)
                            if entry.docid == 1)
            assert stored == sorted(walked[segment.term]), segment.describe()


class TestPlannerIntegration:
    def test_plan_for_query_dedups_across_clauses(self):
        engine = build_engine()
        # Both clauses mention 'xml'; universal scope must dedup to one
        # target per kind.
        plan = engine.plan_for_query(
            "//a[about(.//sec, xml)]//sec[about(., xml retrieval)]")
        keys = [(t.kind, t.term, t.scope) for t in plan]
        assert len(keys) == len(set(keys))
        terms = {t.term for t in plan}
        assert terms == {"xml", "retrieval"}

    def test_materialize_for_query_installs_plan(self):
        engine = build_engine()
        installed = engine.materialize_for_query(
            "//sec[about(., xml retrieval)]")
        assert {seg.term for seg in installed} == {"xml", "retrieval"}
        assert {seg.kind for seg in installed} == {"rpl", "erpl"}
        # Second call: everything is satisfied, nothing new installed.
        again = engine.materialize_for_query("//sec[about(., xml retrieval)]")
        assert again == []

    def test_build_plan_reports_reuse(self):
        engine = build_engine()
        planner = BuildPlanner()
        planner.add("rpl", "xml")
        report = engine.build_segments(planner.plan())
        assert (report.built, report.reused) == (1, 0)
        planner = BuildPlanner()
        planner.add("rpl", "xml")
        planner.add("rpl", "database")
        report = engine.build_segments(planner.plan())
        assert (report.built, report.reused) == (1, 1)
