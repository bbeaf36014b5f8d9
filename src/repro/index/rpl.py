"""The entry and block layouts of relevance posting lists (RPLs) and
element RPLs (ERPLs), and :func:`encode_run`, the one encoder of their
block runs.

An RPL of a term ``t`` stores scored elements containing ``t`` in
*descending relevance* order — the sorted-access lists the threshold
algorithm consumes.  An ERPL stores the same entries in *position*
order, grouped by sid — what the Merge algorithm consumes (paper §2.2).

Nothing here computes entries: the lists are generated by ERA over the
Elements and PostingLists indexes (paper §3.2: "TReX also uses ERA for
generating or extending the RPLs and ERPLs tables";
:func:`repro.build.batch.compute_entries_batch`).
"""

from __future__ import annotations

from typing import NamedTuple

from ..storage.blocks import DEFAULT_BLOCK_SIZE, BlockSequence
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..storage.serialization import BlockCodec, FloatCodec, UIntCodec

__all__ = [
    "RplEntry",
    "rpl_block_codec",
    "erpl_block_codec",
    "encode_run",
    "rpl_entry_from_block",
]


class RplEntry(NamedTuple):
    """A scored element entry: (score, sid, docid, endpos, length).

    The paper's 5-tuple (§2.2): "(1) a relevance score, (2) an sid,
    (3) a document identifier, (4) an offset to end position, and
    (5) a length".  A named tuple, so entries stay cheap and hashable,
    field access is C-level, and the read path builds one straight from
    a decoded row with ``tuple.__new__(RplEntry, row)`` — no Python
    frame per entry.
    """

    score: float
    sid: int
    docid: int
    endpos: int
    length: int

    @property
    def startpos(self) -> int:
        return self[3] - self[4]

    def element_key(self) -> tuple[int, int]:
        return (self[2], self[3])


def rpl_block_codec() -> BlockCodec:
    """Block layout for RPL segments: key ``(ir,)`` — the descending-
    relevance rank, so block order *is* sorted access — and payload
    ``(score, sid, docid, endpos, length)``."""
    return BlockCodec(
        key_width=1,
        payload_codecs=(FloatCodec(), UIntCodec(), UIntCodec(),
                        UIntCodec(), UIntCodec()),
        score_index=1,
    )


def erpl_block_codec() -> BlockCodec:
    """Block layout for ERPL segments: key ``(sid, docid, endpos)`` —
    sid-major position order, so Merge seeks by key — and payload
    ``(score, length)``."""
    return BlockCodec(
        key_width=3,
        payload_codecs=(FloatCodec(), UIntCodec()),
        score_index=3,
    )


def encode_run(kind: str, entries: list[RplEntry],
               block_size: int = DEFAULT_BLOCK_SIZE,
               cost_model: CostModel | None = None,
               cache: PageCache | None = None,
               compression: str = "none") -> BlockSequence:
    """Encode *entries* as one block run of the given *kind*.

    RPL runs are keyed by descending-score rank, ERPL runs by
    ``(sid, docid, endpos)``.  Deterministic: the same entries, block
    size and compression always serialize to the same bytes.  The one
    run encoder: the catalog builds every base and delta run with it,
    and the tests call it bound to no catalog.
    """
    rows: list[tuple]
    if kind == "rpl":
        ordered = sorted(entries, key=lambda e: (-e.score, e.docid, e.endpos))
        rows = [(rank, *entry) for rank, entry in enumerate(ordered)]
        codec = rpl_block_codec()
    else:
        rows = sorted((e.sid, e.docid, e.endpos, e.score, e.length)
                      for e in entries)
        codec = erpl_block_codec()
    return BlockSequence.build(rows, codec, block_size=block_size,
                               cost_model=cost_model, cache=cache,
                               compression=compression)


def rpl_entry_from_block(row: tuple) -> RplEntry:
    _ir, score, sid, docid, endpos, length = row
    return RplEntry(score, sid, docid, endpos, length)
