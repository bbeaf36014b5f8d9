"""Text tokenization for indexing and querying.

Both document text and NEXI ``about()`` keywords are run through the
same :class:`Tokenizer`, so that a query term always matches the indexed
form.  The pipeline is the classic IR one: lowercase, split on
non-alphanumerics, drop stopwords, and optionally apply a light
suffix-stripping stemmer (a small subset of Porter's rules — enough to
conflate plurals and common verb forms without the full algorithm).
"""

from __future__ import annotations

import re
import sys
from typing import Iterable

__all__ = ["Tokenizer", "DEFAULT_STOPWORDS", "light_stem"]

#: A compact English stopword list (the usual suspects that appear in
#: NEXI queries and generated prose alike).
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has have in is it its of on or
    that the this to was were will with not but they them their then
    there which while when where who whom whose what why how all any
    been being do does did so such than too very can could should would
    into over under between about we you he she i his her our your
    """.split()
)

_TOKEN_RE = re.compile(r"[0-9a-zA-Z]+")

_STEM_SUFFIXES = (
    ("ational", "ate"),
    ("ization", "ize"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("fulli", "ful"),
    ("ingly", ""),
    ("edly", ""),
    ("ies", "y"),
    ("sses", "ss"),
    ("ing", ""),
    ("ed", ""),
    ("s", ""),
)


def light_stem(term: str) -> str:
    """Apply one pass of suffix stripping; never shortens below 3 chars."""
    for suffix, replacement in _STEM_SUFFIXES:
        if term.endswith(suffix):
            stem = term[: len(term) - len(suffix)] + replacement
            if len(stem) >= 3:
                return stem
            return term
    return term


class Tokenizer:
    """Configurable text-to-terms pipeline.

    Parameters
    ----------
    stopwords:
        Terms to drop after lowercasing.  Pass an empty set to keep
        everything.  Defaults to :data:`DEFAULT_STOPWORDS`.
    stem:
        When true, apply :func:`light_stem` to each surviving term.
    min_length:
        Drop terms shorter than this many characters (after stemming).
    """

    def __init__(self, stopwords: Iterable[str] | None = None, *,
                 stem: bool = False, min_length: int = 1) -> None:
        self.stopwords = frozenset(DEFAULT_STOPWORDS if stopwords is None else stopwords)
        self.stem = stem
        self.min_length = min_length

    def terms(self, text: str) -> list[str]:
        """The index terms of *text*, in order, interned.

        One regex pass over the whole run; text that is not ASCII is
        matched before lowercasing, because some non-ASCII letters
        lowercase to ASCII ones (the Kelvin sign to ``k``)."""
        if text.isascii():
            found = _TOKEN_RE.findall(text.lower())
        else:
            found = [term.lower() for term in _TOKEN_RE.findall(text)]
        stopwords = self.stopwords
        found = [term for term in found if term not in stopwords]
        if self.stem:
            found = [light_stem(term) for term in found]
        if self.min_length > 1:
            found = [term for term in found if len(term) >= self.min_length]
        return list(map(sys.intern, found))

    def normalize_term(self, term: str) -> str | None:
        """Normalize a single query keyword; None if it is a stopword."""
        tokens = self.terms(term)
        if not tokens:
            return None
        return tokens[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tokenizer(stopwords={len(self.stopwords)}, "
                f"stem={self.stem}, min_length={self.min_length})")
