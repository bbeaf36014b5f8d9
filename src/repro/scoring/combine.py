"""The scored element every strategy returns.

Within one retrieval task (a sid set and a term set), the score of an
element is the **sum** of its weighted per-term scores, added in term
order — the monotone aggregation both the threshold algorithm and Merge
rely on; each strategy sums in its own loop.

Across clauses, NEXI queries rank *target* elements (the ones selected
by the full query path) by their own content score plus a discounted
contribution from support clauses matched on their ancestors — e.g. in
``//article[about(., xml)]//sec[about(., retrieval)]`` a ``sec`` element
is ranked by its "retrieval" score plus ``support_weight`` times the
containing article's "xml" score.  This mirrors the common INEX
practice of ancestor score propagation; the one combiner is
:meth:`repro.retrieval.engine.TrexEngine._combine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ScoredHit"]


@dataclass(order=True)
class ScoredHit:
    """A scored element in a result list (sortable by score, then position)."""

    score: float
    docid: int = field(compare=True)
    end_pos: int = field(compare=True)
    sid: int = field(compare=False, default=0)
    length: int = field(compare=False, default=0)

    @property
    def start_pos(self) -> int:
        return self.end_pos - self.length

    def element_key(self) -> tuple[int, int]:
        return (self.docid, self.end_pos)

    def contains(self, other: "ScoredHit") -> bool:
        """Positional ancestor test between hits of the same document."""
        return (self.docid == other.docid
                and self.start_pos < other.start_pos
                and other.end_pos < self.end_pos)
