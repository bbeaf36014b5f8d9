"""The segment builder: ERA over the two base indexes.

The paper materializes its redundant lists with the algorithm it
already has ("TReX also uses ERA for generating or extending the RPLs
and ERPLs tables", §3.2), and so does :func:`compute_entries_batch` —
the one producer of entries, for a new list and for an ingest's delta
run alike.  For every requested
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
against.  An ingest passes the new *docid*: the sweep then reads only
the posting fragments covering that document and walks each extent
from its first block there, and returns the docid slice of the full
pass.  On the 120-document ledger corpus with 32 universal segments
that step takes a median 3.2–3.4 ms of CPU per ingest, against
1.2–1.6 ms for the tree walk it replaced, within an ingest of
63–73 ms (docs/build.md).

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

from dataclasses import dataclass, field
from typing import Iterable

from ..index.elements import BlockedElements
from ..index.postings import BlockedPostings
from ..index.rpl import RplEntry
from ..retrieval.era import era_raw
from ..scoring.scorers import ElementScorer
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from .planner import BuildTarget

__all__ = ["BatchBuildResult", "BuildReport", "TERM_CHUNK",
           "compute_entries_batch"]

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
                          cost_model: CostModel | None = None,
                          docid: int | None = None) -> BatchBuildResult:
    """Entries for every target, by ERA over the two base indexes —
    only those of document *docid* when one is given."""
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
        raw = era_raw(elements, postings, sids, chunk, model, docid)
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
