"""Property-based round trips through the directory loader."""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Collection, Tokenizer, parse_document
from repro.corpus.loader import dump_collection, load_collection

#: ``REPRO_XML_EXAMPLES`` raises every example count (CI runs 300).
EXAMPLES = os.environ.get("REPRO_XML_EXAMPLES")


def examples(default: int) -> int:
    return int(EXAMPLES) if EXAMPLES else default


@st.composite
def xml_documents(draw, depth=0):
    tag = draw(st.sampled_from(["a", "sec", "p", "fig"]))
    n_children = 0 if depth >= 3 else draw(st.integers(0, 3))
    words = draw(st.lists(st.sampled_from(["alpha", "beta", "gamma", "xml"]),
                          max_size=4))
    children = [draw(xml_documents(depth=depth + 1)) for _ in range(n_children)]
    inner = " ".join(words) + "".join(children)
    return f"<{tag}>{inner}</{tag}>"


class TestLoaderProperties:
    @given(st.lists(xml_documents(), min_size=1, max_size=4))
    @settings(max_examples=examples(50), deadline=None)
    def test_dump_load_preserves_structure_and_terms(self, texts):
        import tempfile
        tok = Tokenizer(stopwords=())
        collection = Collection.from_documents(
            parse_document(text, docid, tokenizer=tok)
            for docid, text in enumerate(texts))
        with tempfile.TemporaryDirectory() as directory:
            dump_collection(collection, directory)
            reloaded = load_collection(directory, tokenizer=tok)
        assert len(reloaded) == len(collection)
        for document in collection:
            again = reloaded.document(document.docid)
            assert [n.tag for n in again.elements()] == \
                [n.tag for n in document.elements()]
            assert sorted(again.terms) == sorted(document.terms)

    @given(st.lists(xml_documents(), min_size=1, max_size=3))
    @settings(max_examples=examples(30), deadline=None)
    def test_tokens_stay_in_owning_elements(self, texts):
        """After a round trip, each element contains the same multiset of
        terms in its subtree (positions may shift, ownership may not)."""
        import tempfile
        tok = Tokenizer(stopwords=())
        collection = Collection.from_documents(
            parse_document(text, docid, tokenizer=tok)
            for docid, text in enumerate(texts))
        with tempfile.TemporaryDirectory() as directory:
            dump_collection(collection, directory)
            reloaded = load_collection(directory, tokenizer=tok)
        for document in collection:
            again = reloaded.document(document.docid)
            original_nodes = list(document.elements())
            reloaded_nodes = list(again.elements())
            for node_a, node_b in zip(original_nodes, reloaded_nodes):
                terms_a = sorted(document.terms_in_span(
                    node_a.start_pos, node_a.end_pos))
                terms_b = sorted(again.terms_in_span(
                    node_b.start_pos, node_b.end_pos))
                assert terms_a == terms_b
