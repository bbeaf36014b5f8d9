"""The PostingLists index: fragmented positional inverted lists.

``PostingLists(token, docid, offset, postingdataentry)`` (paper §2.2):
for each term, all positions where it appears, as ``(docid, offset)``
pairs in one block sequence per term.  A long posting list is split into
fragments — each block holds a bounded batch of positions and its header
carries the first and last one, so fragments of one term are in position
order and a seek can land mid-list.  Following the paper, a maximal
dummy position ``m-pos`` is appended after the last real position of
every term, so iterators detect exhaustion uniformly.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from operator import attrgetter
from typing import Iterable

from ..corpus.document import M_POS, Document
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..storage.serialization import BlockCodec
from .blocked import BlockedIndex

__all__ = ["BlockedPostings", "DEFAULT_FRAGMENT_SIZE", "extend_posting_lists"]

DEFAULT_FRAGMENT_SIZE = 64


class BlockedPostings(BlockedIndex[str]):
    """Per-term block sequences of positions, one block per fragment.

    The index remembers its fragment size, so documents ingested later
    re-fragment their terms exactly as a fresh build would.
    """

    _parse_key = str
    _terminator = (M_POS,)

    def __init__(self, cost_model: CostModel | None = None,
                 fragment_size: int = DEFAULT_FRAGMENT_SIZE,
                 cache: PageCache | None = None) -> None:
        super().__init__(BlockCodec(key_width=2), fragment_size,
                         cost_model=cost_model, cache=cache)

    def rebuild(self, documents: Iterable[Document]) -> set[str]:
        """Fold the token positions of *documents* into their terms'
        lists, re-cutting each touched term's fragments from the first
        new position on.  Both the from-scratch build (the whole
        collection into an empty index) and ingest (one document);
        returns the affected terms.  Each term gathers a docid and an
        offset column, not a tuple per position."""
        columns: dict[str, tuple[array, array]] = defaultdict(
            lambda: (array("q"), array("q")))
        for document in sorted(documents, key=attrgetter("docid")):
            docid = document.docid
            for term, position in zip(document.terms, document.positions):
                docids, offsets = columns[term]
                docids.append(docid)
                offsets.append(position)
        return self._merge(columns)

    def __len__(self) -> int:
        """Rows: one per stored fragment."""
        return sum(seq.block_count for seq in self._sequences.values())


def extend_posting_lists(postings: BlockedPostings,
                         document: Document) -> set[str]:
    """Fold a new document's positions into *postings*: the ingest
    entry point, kept as a named boundary the performance ledger times.
    Returns the affected terms, so callers can find the RPL/ERPL
    segments that need delta runs."""
    return postings.rebuild([document])
