"""Physical indexes: Elements, PostingLists, RPL/ERPL segments, catalog."""

from .catalog import IndexCatalog, IndexSegment
from .elements import BlockedElements
from .postings import (
    DEFAULT_FRAGMENT_SIZE,
    BlockedPostings,
    extend_posting_lists,
)
from .rpl import (
    RplEntry,
    compute_rpl_entries,
    erpl_block_codec,
    rpl_block_codec,
    term_positions_by_document,
)

__all__ = [
    "IndexCatalog",
    "IndexSegment",
    "BlockedElements",
    "DEFAULT_FRAGMENT_SIZE",
    "BlockedPostings",
    "extend_posting_lists",
    "RplEntry",
    "compute_rpl_entries",
    "erpl_block_codec",
    "rpl_block_codec",
    "term_positions_by_document",
]
