"""The Elements index: ``Elements(SID, docid, endpos, length)``.

One row per element in the corpus (paper §2.2), held as one block
sequence per sid keyed by ``(docid, endpos)`` with the length as
payload.  The key order is what makes extent iterators work: reading a
sid's sequence yields the extent in document/position order, and the
resident block headers are the skip directory the ERA primitive
``nextElementAfter`` consults before decoding anything.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from ..corpus.document import Document
from ..storage.blocks import DEFAULT_BLOCK_SIZE
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..storage.serialization import BlockCodec, UIntCodec
from ..summary.base import PartitionSummary
from .blocked import BlockedIndex

__all__ = ["BlockedElements"]


class BlockedElements(BlockedIndex[int]):
    """Per-sid block sequences of ``(docid, endpos, length)`` rows."""

    _parse_key = int

    def __init__(self, cost_model: CostModel | None = None,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 cache: PageCache | None = None) -> None:
        super().__init__(BlockCodec(key_width=2, payload_codecs=(UIntCodec(),)),
                         block_size, cost_model=cost_model, cache=cache)

    def rebuild(self, documents: Iterable[Document],
                summary: PartitionSummary) -> set[int]:
        """Fold the elements of *documents* into their extents.

        Both the from-scratch build (the whole collection into an empty
        index) and ingest (one document): only the tails of the extents
        the documents touch are re-encoded.  Returns the affected sids.
        """
        added: dict[int, list[tuple]] = defaultdict(list)
        for document in documents:
            docid = document.docid
            for node in document.elements():
                added[summary.sid_of(docid, node.end_pos)].append(
                    (docid, node.end_pos, node.length))
        return self._merge(added)

    def __len__(self) -> int:
        """Rows: one per element."""
        return sum(seq.entry_count for seq in self._sequences.values())
