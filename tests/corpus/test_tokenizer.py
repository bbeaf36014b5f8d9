"""Tests for the tokenization pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import DEFAULT_STOPWORDS, Tokenizer, light_stem


class TestTokenizer:
    def test_basic_split_and_lowercase(self):
        tok = Tokenizer(stopwords=())
        assert tok.terms("Hello, World!") == ["hello", "world"]
        # Only ASCII letters and digits make terms, even where a letter
        # lowercases to one (the Kelvin sign to "k").
        assert tok.terms("Caf\u00e9 be\u212ata") == ["caf", "be", "ta"]

    def test_numbers_kept(self):
        tok = Tokenizer(stopwords=())
        assert tok.terms("IEEE 2005 inex") == ["ieee", "2005", "inex"]

    def test_stopwords_dropped(self):
        tok = Tokenizer()
        assert tok.terms("the cat and the hat") == ["cat", "hat"]

    def test_empty_text(self):
        assert Tokenizer().terms("") == []
        assert Tokenizer().terms("   \n\t ") == []

    def test_punctuation_only(self):
        assert Tokenizer().terms("!!! --- ???") == []

    def test_custom_stopwords(self):
        tok = Tokenizer(stopwords={"xml"})
        assert tok.terms("xml retrieval") == ["retrieval"]

    def test_min_length(self):
        tok = Tokenizer(stopwords=(), min_length=3)
        assert tok.terms("go to the db now") == ["the", "now"]

    def test_stemming_enabled(self):
        tok = Tokenizer(stopwords=(), stem=True)
        assert tok.terms("queries") == ["query"]
        assert tok.terms("signing") == ["sign"]

    def test_normalize_term(self):
        tok = Tokenizer()
        assert tok.normalize_term("Retrieval") == "retrieval"
        assert tok.normalize_term("the") is None
        assert tok.normalize_term("") is None

    def test_order_preserved(self):
        tok = Tokenizer(stopwords=())
        assert tok.terms("c b a") == ["c", "b", "a"]

    @given(st.text(max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_tokens_are_normalized(self, text):
        tok = Tokenizer()
        for term in tok.terms(text):
            assert term == term.lower()
            assert term not in DEFAULT_STOPWORDS
            assert term.isalnum()

    @given(st.lists(st.sampled_from(["apple", "banana", "xml", "query"]), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_on_clean_words(self, words):
        tok = Tokenizer(stopwords=())
        text = " ".join(words)
        once = tok.terms(text)
        assert tok.terms(" ".join(once)) == once


class TestLightStem:
    def test_plural(self):
        assert light_stem("indexes") == "indexe"  # light, not full Porter
        assert light_stem("summaries") == "summary"

    def test_short_words_untouched(self):
        assert light_stem("is") == "is"
        assert light_stem("as") == "as"

    def test_no_suffix(self):
        assert light_stem("xml") == "xml"

    def test_never_below_three_chars(self):
        assert len(light_stem("bed")) >= 3
