"""Tests for path-pattern parsing, matching, and sid translation."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import AliasMapping, Collection, Tokenizer, parse_document
from repro.errors import NexiSyntaxError
from repro.summary import (
    IncomingSummary,
    PathPattern,
    PathStep,
    TagSummary,
    match_path,
    parse_path_pattern,
    sids_for_pattern,
)


def build_collection(*texts):
    tok = Tokenizer(stopwords=())
    return Collection.from_documents(
        parse_document(text, docid, tokenizer=tok) for docid, text in enumerate(texts))


class TestParsePathPattern:
    def test_descendant_steps(self):
        pattern = parse_path_pattern("//article//sec")
        assert pattern.steps == (PathStep("descendant", "article"),
                                 PathStep("descendant", "sec"))

    def test_child_steps(self):
        pattern = parse_path_pattern("/books/journal")
        assert pattern.steps == (PathStep("child", "books"),
                                 PathStep("child", "journal"))

    def test_mixed(self):
        pattern = parse_path_pattern("//bdy/sec//p")
        assert [s.axis for s in pattern.steps] == ["descendant", "child", "descendant"]

    def test_wildcard(self):
        pattern = parse_path_pattern("//bdy//*")
        assert pattern.steps[-1].label == "*"

    def test_round_trip_str(self):
        for text in ["//article//sec", "/a/b//c", "//bdy//*"]:
            assert str(parse_path_pattern(text)) == text

    def test_empty_rejected(self):
        with pytest.raises(NexiSyntaxError):
            parse_path_pattern("")

    def test_missing_label_rejected(self):
        with pytest.raises(NexiSyntaxError):
            parse_path_pattern("//a//")

    def test_no_leading_slash_rejected(self):
        with pytest.raises(NexiSyntaxError):
            parse_path_pattern("article//sec")

    def test_concatenated(self):
        outer = parse_path_pattern("//article")
        inner = parse_path_pattern("//sec")
        assert str(outer.concatenated(inner)) == "//article//sec"


class TestMatchPath:
    def match(self, pattern, path):
        return match_path(parse_path_pattern(pattern), tuple(path.split("/")))

    def test_simple_descendant(self):
        assert self.match("//sec", "books/journal/article/bdy/sec")
        assert not self.match("//sec", "books/journal/article/bdy")

    def test_last_step_anchors_at_end(self):
        # //article must select article elements, not their descendants
        assert self.match("//article", "books/journal/article")
        assert not self.match("//article", "books/journal/article/bdy")

    def test_two_descendant_steps(self):
        assert self.match("//article//sec", "books/journal/article/bdy/sec")
        assert not self.match("//article//sec", "books/sec")

    def test_child_axis_strict(self):
        assert self.match("/books/journal", "books/journal")
        assert not self.match("/journal", "books/journal")
        assert not self.match("/books/article", "books/journal/article")

    def test_wildcard_step(self):
        assert self.match("//bdy//*", "a/bdy/sec")
        assert self.match("//bdy//*", "a/bdy/sec/p")
        assert not self.match("//bdy//*", "a/bdy")

    def test_repeated_label(self):
        assert self.match("//sec//sec", "article/sec/sec")
        assert self.match("//sec//sec", "article/sec/x/sec")
        assert not self.match("//sec//sec", "article/sec")

    def test_mixed_axes(self):
        assert self.match("//article/bdy//p", "j/article/bdy/sec/p")
        assert not self.match("//article/bdy//p", "j/article/fm/bdy2/p")

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_descendant_self_pattern_matches_iff_label_present_at_end(self, labels):
        path = tuple(labels)
        assert match_path(parse_path_pattern("//" + path[-1]), path)
        for absent in set("abc") - set(path[-1]):
            pattern = parse_path_pattern("//" + absent)
            assert not match_path(pattern, path) or path[-1] == absent

    @given(st.lists(st.sampled_from("ab"), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_wildcard_only_matches_everything(self, labels):
        assert match_path(parse_path_pattern("//*"), tuple(labels))


def reference_match_path(pattern: PathPattern, path) -> bool:
    """The recursive memoized matcher ``match_path`` replaced, kept
    verbatim (the name aside) as the bottom-up matcher's oracle."""
    steps = pattern.steps
    if not steps or not path:
        return False

    @lru_cache(maxsize=None)
    def solve(step_idx: int, path_idx: int) -> bool:
        """Can steps[step_idx:] match path[path_idx:] ending exactly at the end?"""
        if step_idx == len(steps):
            return path_idx == len(path)
        step = steps[step_idx]
        if step.axis == "child":
            if path_idx >= len(path) or not step.matches_label(path[path_idx]):
                return False
            return solve(step_idx + 1, path_idx + 1)
        # descendant: the step's label may land on any position >= path_idx
        for land in range(path_idx, len(path)):
            if step.matches_label(path[land]) and solve(step_idx + 1, land + 1):
                return True
        return False

    try:
        return solve(0, 0)
    finally:
        solve.cache_clear()


PATTERN_STEPS = st.lists(st.builds(PathStep,
                                   st.sampled_from(["child", "descendant"]),
                                   st.sampled_from(["a", "b", "c", "*"])),
                         max_size=5)


@given(steps=PATTERN_STEPS,
       path=st.lists(st.sampled_from("abc"), max_size=8))
@settings(max_examples=500, deadline=None)
def test_match_path_equals_the_recursive_matcher(steps, path):
    pattern = PathPattern(tuple(steps))
    assert match_path(pattern, tuple(path)) == reference_match_path(
        pattern, tuple(path))


class TestSidsForPattern:
    @pytest.fixture()
    def collection(self):
        return build_collection(
            "<books><journal><article>"
            "<bdy><sec><p>alpha</p><ss1><p>beta</p></ss1></sec></bdy>"
            "</article></journal></books>")

    def test_incoming_summary_article_sec(self, collection):
        summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
        sids = sids_for_pattern(summary, parse_path_pattern("//article//sec"))
        # two extents: .../bdy/sec and .../bdy/sec/sec (folded ss1)
        assert len(sids) == 2
        for sid in sids:
            assert summary.label(sid) == "sec"

    def test_vague_matches_synonym_label_in_query(self, collection):
        summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
        vague = sids_for_pattern(summary, parse_path_pattern("//article//ss1"), vague=True)
        strict = sids_for_pattern(summary, parse_path_pattern("//article//ss1"), vague=False)
        assert len(vague) == 2  # ss1 canonicalizes to sec
        assert strict == set()  # no canonical path contains the literal 'ss1'

    def test_wildcard_under_bdy(self, collection):
        summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
        sids = sids_for_pattern(summary, parse_path_pattern("//bdy//*"))
        labels = {summary.label(sid) for sid in sids}
        assert labels == {"sec", "p"}

    def test_tag_summary_translation(self, collection):
        summary = TagSummary(collection, alias=AliasMapping.inex_ieee())
        sids = sids_for_pattern(summary, parse_path_pattern("//article//sec"))
        assert len(sids) == 1
        assert summary.label(next(iter(sids))) == "sec"

    def test_no_match_gives_empty_set(self, collection):
        summary = IncomingSummary(collection)
        assert sids_for_pattern(summary, parse_path_pattern("//nonexistent")) == set()

    def test_paper_example_shape(self):
        """Paper §3.1: //article → 1 sid; //article//sec → several sec sids."""
        collection = build_collection(
            "<books><journal><article>"
            "<bdy><sec><p>a</p></sec><sec><ss1><p>b</p><ss2><p>c</p></ss2></ss1></sec></bdy>"
            "</article></journal></books>")
        summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
        article_sids = sids_for_pattern(summary, parse_path_pattern("//article"))
        sec_sids = sids_for_pattern(summary, parse_path_pattern("//article//sec"))
        assert len(article_sids) == 1
        assert len(sec_sids) == 3  # sec, sec/sec, sec/sec/sec
        assert article_sids.isdisjoint(sec_sids)
