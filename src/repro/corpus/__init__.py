"""XML corpus substrate: parsing, tokenization, and synthetic collections."""

from .alias import AliasMapping
from .collection import Collection, CollectionStats
from .document import Document, M_POS, MAX_DOCID, MAX_POSITION, XMLNode
from .generator import (
    IEEE_TOPICS,
    SyntheticIEEECorpus,
    SyntheticWikipediaCorpus,
    TopicSpec,
    WIKI_TOPICS,
    ZipfVocabulary,
)
from .tokenizer import DEFAULT_STOPWORDS, Tokenizer, light_stem
from .xmlparser import XMLParser, parse_document, parse_xml

__all__ = [
    "AliasMapping",
    "Collection",
    "CollectionStats",
    "Document",
    "M_POS",
    "MAX_DOCID",
    "MAX_POSITION",
    "XMLNode",
    "IEEE_TOPICS",
    "SyntheticIEEECorpus",
    "SyntheticWikipediaCorpus",
    "TopicSpec",
    "WIKI_TOPICS",
    "ZipfVocabulary",
    "DEFAULT_STOPWORDS",
    "Tokenizer",
    "light_stem",
    "XMLParser",
    "parse_document",
    "parse_xml",
]
