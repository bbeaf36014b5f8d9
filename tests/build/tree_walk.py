"""The builder's independent oracle: one document's entries by a walk
of its own tree.

ERA builds and extends every RPL/ERPL (paper §3.2); this walk reaches
the same rows by another road — every element of the document, its tf
counted by bisecting the term's positions — so the tests can hold the
builder against it.  On a retrieval-safe summary the two agree row for
row; on an unsafe one the walk also reports an element nested inside a
same-sid ancestor, which ERA's extent sweep passes over
(docs/retrieval.md).
"""

from bisect import bisect_left, bisect_right
from typing import Iterable

from repro.corpus.document import Document, XMLNode
from repro.index.rpl import RplEntry
from repro.scoring.scorers import ElementScorer
from repro.summary.base import PartitionSummary


def _element_tf(node: XMLNode, sorted_positions: list[int]) -> int:
    """Occurrences of the term strictly inside *node*'s span."""
    lo = bisect_right(sorted_positions, node.start_pos)
    hi = bisect_left(sorted_positions, node.end_pos)
    return hi - lo


def compute_document_entries(document: Document, summary: PartitionSummary,
                             terms: Iterable[str],
                             scorer: ElementScorer) -> dict[str, list[RplEntry]]:
    """Per-term entries contributed by one document, each list in the
    RPL order ``(-score, docid, endpos)``."""
    wanted = set(terms)
    positions_by_term: dict[str, list[int]] = {}
    for term, position in zip(document.terms, document.positions):
        if term in wanted:
            positions_by_term.setdefault(term, []).append(position)
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
