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
    erpl_block_codec,
    rpl_block_codec,
)

__all__ = [
    "IndexCatalog",
    "IndexSegment",
    "BlockedElements",
    "DEFAULT_FRAGMENT_SIZE",
    "BlockedPostings",
    "extend_posting_lists",
    "RplEntry",
    "erpl_block_codec",
    "rpl_block_codec",
]
