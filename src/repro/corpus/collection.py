"""Document collections and their corpus-level statistics.

A :class:`Collection` owns a set of parsed :class:`~repro.corpus.
document.Document` objects and the derived statistics that scoring
needs: document frequency and collection frequency per term, average
element length, and element counts.  It is the in-memory "corpus" from
which every index in :mod:`repro.index` is built.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from ..errors import TrexError
from .document import Document, XMLNode

__all__ = ["Collection", "CollectionStats"]


class CollectionStats:
    """Term and element statistics for one collection."""

    def __init__(self) -> None:
        self.num_documents = 0
        self.num_elements = 0
        self.total_tokens = 0
        self.total_positions = 0
        self.document_frequency: Counter[str] = Counter()
        self.collection_frequency: Counter[str] = Counter()
        self._element_length_sum = 0

    def observe(self, document: Document) -> None:
        self.num_documents += 1
        self.total_tokens += len(document.terms)
        self.total_positions += document.position_count
        self.collection_frequency.update(document.terms)
        # Each distinct term once, in first-seen order; an iterator,
        # because Counter.update reads a mapping as counts.
        self.document_frequency.update(iter(dict.fromkeys(document.terms)))
        for node in document.elements():
            self.num_elements += 1
            self._element_length_sum += node.length

    @property
    def vocabulary_size(self) -> int:
        return len(self.collection_frequency)

    @property
    def average_element_length(self) -> float:
        if not self.num_elements:
            return 0.0
        return self._element_length_sum / self.num_elements

    def df(self, term: str) -> int:
        return self.document_frequency.get(term, 0)

    def cf(self, term: str) -> int:
        return self.collection_frequency.get(term, 0)


class Collection:
    """An ordered set of documents with unique docids."""

    def __init__(self, name: str = "collection") -> None:
        self.name = name
        self._documents: dict[int, Document] = {}
        self._stats = CollectionStats()
        self._max_docid = -1

    @classmethod
    def from_documents(cls, documents: Iterable[Document],
                       name: str = "collection") -> "Collection":
        collection = cls(name)
        for document in documents:
            collection.add(document)
        return collection

    def add(self, document: Document) -> None:
        if document.docid in self._documents:
            raise TrexError(f"duplicate docid {document.docid} in {self.name!r}")
        self._documents[document.docid] = document
        self._stats.observe(document)
        if document.docid > self._max_docid:
            self._max_docid = document.docid

    def document(self, docid: int) -> Document:
        try:
            return self._documents[docid]
        except KeyError:
            raise TrexError(f"no document with docid {docid}") from None

    def __contains__(self, docid: int) -> bool:
        return docid in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    @property
    def docids(self) -> list[int]:
        return list(self._documents.keys())

    @property
    def next_docid(self) -> int:
        """The next free docid for sequential allocation."""
        return self._max_docid + 1

    @property
    def stats(self) -> CollectionStats:
        return self._stats

    def elements(self) -> Iterator[tuple[Document, XMLNode]]:
        """Yield every (document, element) pair in the collection."""
        for document in self:
            for node in document.elements():
                yield document, node

    def element_by_position(self, docid: int, end_pos: int) -> XMLNode | None:
        """Look up the element of *docid* whose close tag is at *end_pos*."""
        if docid not in self._documents:
            return None
        return self._documents[docid].find_by_end(end_pos)

    def describe(self) -> dict[str, float | int | str]:
        """A summary dict used by reports and examples."""
        return {
            "name": self.name,
            "documents": len(self),
            "elements": self._stats.num_elements,
            "tokens": self._stats.total_tokens,
            "vocabulary": self._stats.vocabulary_size,
            "avg_element_length": round(self._stats.average_element_length, 2),
        }
