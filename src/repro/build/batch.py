"""The segment builder: ERA over the two base indexes.

The paper materializes its redundant lists with the algorithm it
already has ("TReX also uses ERA for generating or extending the RPLs
and ERPLs tables", §3.2), and so does :func:`compute_entries_batch` —
the one producer of collection-wide entries.  For every requested
``(kind, term, scope)`` target it runs :func:`~repro.retrieval.era.
era_raw` over the Elements and PostingLists indexes:

* the sids swept are the union of the targets' scopes (every extent
  when any target is universal), the terms the targets' distinct terms
  in chunks of :data:`TERM_CHUNK`;
* each term's tf column is scored by one ``scorer.score_block`` call —
  bitwise what ``scorer.score`` returns per element;
* the score fans out to each target of that term whose scope admits
  the sid, and per-target entry lists are sorted by the RPL order
  ``(-score, docid, endpos)``.

So a stored list holds exactly the elements ERA would answer with,
whatever the summary — the contract TA, Merge and WAND are tested
against.  :func:`compute_document_entries` is the ingest delta path:
the document is in hand there, a walk of its own tree is an order of
magnitude cheaper than an ERA pass over throw-away indexes, and the
tests use it as the builder's independent oracle.

Charging: a pass reads through a view of the two indexes bound to a
private page cache and cost model (:meth:`~repro.index.blocked.
BlockedIndex.view`), so a build leaves the engine's buffer pool and
meter exactly as it found them and shares no mutable state with
concurrent readers.  Passing a cost model makes that private meter the
caller's: ERA's own seeks, block reads, decodes and compares, plus a
tuple write per entry emitted and a sort per target — how
``measure_query`` accounts ``t_build``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..corpus.document import Document, XMLNode
from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..index.rpl import RplEntry, erpl_block_codec, erpl_block_entry, rpl_block_codec, rpl_block_entry
from ..retrieval.era import era_raw
from ..scoring.scorers import ElementScorer
from ..storage.blocks import DEFAULT_BLOCK_SIZE, BlockSequence
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..summary.base import PartitionSummary
from .planner import BuildTarget

__all__ = ["BatchBuildResult", "BuildReport", "TERM_CHUNK",
           "compute_entries_batch", "compute_document_entries",
           "encode_run", "filter_scope"]

#: Terms per ERA pass.  Figure 2's line 12 takes a minimum over every
#: term's current position, so a pass is linear in its term count,
#: while every extra pass re-sweeps the extents; 32 measured fastest
#: between those two costs (table in docs/build.md), hence a constant.
TERM_CHUNK = 32


@dataclass
class BatchBuildResult:
    """Entries per target, and how many ERA passes produced them."""

    entries: dict[BuildTarget, list[RplEntry]]
    collection_scans: int

    def entry_total(self) -> int:
        return sum(len(rows) for rows in self.entries.values())


@dataclass
class BuildReport:
    """What one build run did — the CLI and telemetry surface."""

    requested: int = 0
    built: int = 0
    reused: int = 0
    entries: int = 0
    bytes_built: int = 0
    collection_scans: int = 0
    segments: list[str] = field(default_factory=list)

    def merge(self, other: "BuildReport") -> None:
        self.requested += other.requested
        self.built += other.built
        self.reused += other.reused
        self.entries += other.entries
        self.bytes_built += other.bytes_built
        self.collection_scans += other.collection_scans
        self.segments.extend(other.segments)


def compute_entries_batch(elements: BlockedElements,
                          postings: BlockedPostings,
                          targets: Iterable[BuildTarget],
                          scorer: ElementScorer,
                          cost_model: CostModel | None = None) -> BatchBuildResult:
    """Entries for every target, by ERA over the two base indexes."""
    entries: dict[BuildTarget, list[RplEntry]] = {
        target: [] for target in targets}
    # term -> the (scope, rows) of each target its scored column feeds.
    fanout: dict[str, list[tuple[frozenset[int] | None, list[RplEntry]]]] = {}
    for target, rows in entries.items():
        fanout.setdefault(target.term, []).append((target.scope, rows))
    if not fanout:
        return BatchBuildResult(entries=entries, collection_scans=0)
    scopes = [target.scope for target in entries]
    if None in scopes:
        sids = elements.keys()
    else:
        sids = sorted(frozenset().union(*scopes))
    model = cost_model if cost_model is not None else CostModel()
    cache = PageCache(cost_model=model)
    elements = elements.view(sids, model, cache)
    postings = postings.view(fanout, model, cache)
    terms = list(fanout)
    passes = 0
    for start in range(0, len(terms), TERM_CHUNK):
        chunk = terms[start:start + TERM_CHUNK]
        raw = era_raw(elements, postings, sids, chunk, model)
        passes += 1
        for column, term in enumerate(chunk):
            hits = [(element, tf_vector[column]) for element, tf_vector in raw
                    if tf_vector[column]]
            scores = scorer.score_block(
                term, [tf for _, tf in hits],
                [element.length for element, _ in hits])
            for (element, _), score in zip(hits, scores):
                if score <= 0.0:
                    continue
                sid = element.sid
                entry = RplEntry(score, sid, element.docid, element.endpos,
                                 element.length)
                for scope, rows in fanout[term]:
                    if scope is None or sid in scope:
                        rows.append(entry)
    model.tuple_write(sum(len(rows) for rows in entries.values()))
    for rows in entries.values():
        # Determinism of the encoded bytes follows from unique
        # (docid, endpos) keys under this order.
        model.sort(len(rows))
        rows.sort(key=lambda e: (-e.score, e.docid, e.endpos))
    return BatchBuildResult(entries=entries, collection_scans=passes)


def _element_tf(node: XMLNode, sorted_positions: list[int]) -> int:
    """Occurrences of the term strictly inside *node*'s span."""
    lo = bisect_right(sorted_positions, node.start_pos)
    hi = bisect_left(sorted_positions, node.end_pos)
    return hi - lo


def compute_document_entries(document: Document, summary: PartitionSummary,
                             terms: Iterable[str],
                             scorer: ElementScorer) -> dict[str, list[RplEntry]]:
    """Per-term entries contributed by one document — the delta-run
    payloads ``add_document`` appends to existing segments.

    On a retrieval-safe summary, equal to what
    :func:`compute_entries_batch` emits for this document's docid (on
    an unsafe one this walk also reports an element nested inside a
    same-sid ancestor, which ERA's extent sweep passes over — see
    docs/retrieval.md).  The engine's scorer keeps the corpus
    statistics snapshot taken at construction, so entries of existing
    documents are unaffected by the insert and only these new entries
    differ from a from-scratch rebuild (which is why appending them as
    a delta run is exact).
    """
    wanted = set(terms)
    positions_by_term: dict[str, list[int]] = {}
    for occurrence in document.tokens:
        if occurrence.term in wanted:
            positions_by_term.setdefault(occurrence.term,
                                         []).append(occurrence.position)
    result: dict[str, list[RplEntry]] = {term: [] for term in sorted(wanted)}
    if not positions_by_term:
        return result
    docid = document.docid
    for node in document.elements():
        sid = summary.sid_of(docid, node.end_pos)
        for term, positions in positions_by_term.items():
            tf = _element_tf(node, positions)
            if tf == 0:
                continue
            score = scorer.score(term, tf, node.length)
            if score <= 0.0:
                continue
            result[term].append(RplEntry(score, sid, docid, node.end_pos,
                                         node.length))
    for rows in result.values():
        rows.sort(key=lambda e: (-e.score, e.docid, e.endpos))
    return result


def encode_run(kind: str, entries: list[RplEntry],
               block_size: int = DEFAULT_BLOCK_SIZE,
               cost_model: CostModel | None = None,
               compression: str = "none") -> BlockSequence:
    """Encode entries as one block run, exactly as the catalog would.

    RPL runs are keyed by descending-score rank, ERPL runs by
    ``(sid, docid, endpos)``.  Deterministic: the same entries, block
    size and compression always serialize to the same bytes.  Bound to
    no catalog, so the tests diff installed segments against it.
    """
    if kind == "rpl":
        ordered = sorted(entries, key=lambda e: (-e.score, e.docid, e.endpos))
        rows = [rpl_block_entry(rank, entry)
                for rank, entry in enumerate(ordered)]
        codec = rpl_block_codec()
    else:
        rows = sorted(erpl_block_entry(entry) for entry in entries)
        codec = erpl_block_codec()
    return BlockSequence.build(rows, codec, block_size=block_size,
                               cost_model=cost_model,
                               compression=compression)


def filter_scope(entries_by_term: Mapping[str, list[RplEntry]], term: str,
                 scope: frozenset[int] | None) -> list[RplEntry]:
    """Entries of *term* admitted by *scope* (all of them when None)."""
    rows = entries_by_term.get(term, [])
    if scope is None:
        return list(rows)
    return [entry for entry in rows if entry.sid in scope]
