"""Tests for the F&B bisimulation index."""

import pytest

from repro.corpus import AliasMapping, Collection, Tokenizer, parse_document
from repro.summary import FBIndex, IncomingSummary, TagSummary, parse_path_pattern, sids_for_pattern


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


class TestFBIndex:
    def test_partitions_all_elements(self):
        collection = build_collection("<a><b>x</b><c><b>y</b></c></a>")
        fb = FBIndex(collection)
        total = sum(fb.extent_size(sid) for sid in fb.sids())
        assert total == collection.stats.num_elements

    def test_refines_incoming_summary(self):
        # Two <sec> elements with identical incoming paths but different
        # subtree structure: incoming merges them, F&B splits them.
        collection = build_collection(
            "<a><sec><p>x</p></sec><sec><p>x</p><fig>f</fig></sec></a>")
        incoming = IncomingSummary(collection)
        fb = FBIndex(collection)
        assert fb.sid_count > incoming.sid_count
        sec_sids = fb.sids_with_label("sec")
        assert len(sec_sids) == 2

    def test_backward_distinguishes_contexts(self):
        # Same tag under different parents: split (like incoming).
        collection = build_collection("<a><b><p>x</p></b><c><p>x</p></c></a>")
        fb = FBIndex(collection)
        assert len(fb.sids_with_label("p")) == 2

    def test_forward_groups_identical_subtrees(self):
        # Structurally identical siblings share an extent.
        collection = build_collection("<a><b><p>x</p></b><b><p>y</p></b></a>")
        fb = FBIndex(collection)
        assert len(fb.sids_with_label("b")) == 1
        assert fb.extent_size(next(iter(fb.sids_with_label("b")))) == 2

    def test_finer_than_every_path_summary(self):
        collection = build_collection(
            "<a><sec><p>one</p></sec><sec><ss1><p>two</p></ss1></sec></a>",
            "<a><sec><p>three</p><p>four</p></sec></a>")
        tag = TagSummary(collection).sid_count
        incoming = IncomingSummary(collection).sid_count
        fb = FBIndex(collection).sid_count
        assert tag <= incoming <= fb

    def test_refinement_is_true_partition_refinement(self):
        """Two elements in the same F&B extent share their incoming sid."""
        collection = build_collection(
            "<a><sec><p>one</p></sec><sec><p>two</p></sec><sec><b>z</b></sec></a>")
        incoming = IncomingSummary(collection)
        fb = FBIndex(collection)
        incoming_of = {}
        for docid, end_pos, sid in fb.assignments():
            other = incoming.sid_of(docid, end_pos)
            assert incoming_of.setdefault(sid, other) == other

    def test_alias_applied_before_refinement(self):
        collection = build_collection("<a><sec><p>x</p></sec><ss1><p>x</p></ss1></a>")
        fb_plain = FBIndex(collection)
        fb_alias = FBIndex(collection, alias=AliasMapping.inex_ieee())
        assert fb_alias.sid_count < fb_plain.sid_count

    def test_pattern_translation_still_exact(self):
        collection = build_collection(
            "<a><sec><p>x</p></sec><sec><p>x</p><fig>f</fig></sec></a>")
        fb = FBIndex(collection)
        sids = sids_for_pattern(fb, parse_path_pattern("//a//sec"))
        assert sids == fb.sids_with_label("sec")
        assert len(sids) == 2

    def test_retrieval_safe_on_non_recursive_data(self):
        collection = build_collection("<a><b><c>x</c></b></a>")
        assert FBIndex(collection).is_retrieval_safe()

    def test_engine_integration(self):
        from repro.retrieval import TrexEngine
        collection = build_collection(
            "<a><sec><p>xml retrieval</p></sec></a>",
            "<a><sec><p>xml</p></sec><sec><p>retrieval stuff</p></sec></a>")
        engine = TrexEngine(collection, FBIndex(collection))
        engine.materialize_for_query("//sec[about(., xml)]", ("erpl",))
        era = engine.evaluate("//sec[about(., xml)]", method="era")
        merge = engine.evaluate("//sec[about(., xml)]", method="merge")
        assert ([(h.element_key(), round(h.score, 9)) for h in era.hits]
                == [(h.element_key(), round(h.score, 9)) for h in merge.hits])
        assert len(era.hits) == 2
