"""The positional XML document model.

TReX identifies an element by the pair ``(docid, endpos)`` — the
position in the document where the element ends — plus its ``length``
(paper §2.2).  For that to work with the strict comparisons in the ERA
pseudocode (``start(e) < pos < end(e)``), *positions must be assigned to
structural tags as well as to tokens*: an element's start position is
the position of its open tag, its end position is the position of its
close tag, and every token inside falls strictly between them.  This
module defines that model; :mod:`repro.corpus.xmlparser` produces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["XMLNode", "Document", "TokenOccurrence", "MAX_DOCID", "MAX_POSITION", "M_POS"]

#: Sentinel document id / position exceeding every real one.  The paper
#: appends a "maximal dummy position denoted m-pos" to posting lists so
#: iterators can signal exhaustion; ``M_POS`` is that sentinel.
MAX_DOCID = 2**40
MAX_POSITION = 2**40
M_POS = (MAX_DOCID, MAX_POSITION)


@dataclass(frozen=True)
class TokenOccurrence:
    """One term occurrence at a token position within a document."""

    term: str
    position: int


class XMLNode:
    """An element node with tag-positional extent.

    ``start_pos`` is the position assigned to the open tag and
    ``end_pos`` the position assigned to the close tag; tokens in the
    subtree occupy positions strictly in between.  ``length`` is defined
    as ``end_pos - start_pos`` (so ``start_pos = end_pos - length``,
    which is how the Elements table reconstructs starts).
    """

    __slots__ = ("tag", "attributes", "children", "parent", "start_pos", "end_pos")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None) -> None:
        self.tag = tag
        self.attributes: dict[str, str] = attributes or {}
        self.children: list[XMLNode] = []
        self.parent: XMLNode | None = None
        self.start_pos = -1
        self.end_pos = -1

    @property
    def length(self) -> int:
        return self.end_pos - self.start_pos

    def append(self, child: "XMLNode") -> None:
        child.parent = self
        self.children.append(child)

    def iter(self) -> Iterator["XMLNode"]:
        """Pre-order traversal of this subtree (self first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def contains(self, other: "XMLNode") -> bool:
        """Positional containment: strict ancestor test."""
        return self.start_pos < other.start_pos and other.end_pos < self.end_pos

    def label_path(self) -> tuple[str, ...]:
        """Labels from the root down to (and including) this node."""
        labels: list[str] = []
        node: XMLNode | None = self
        while node is not None:
            labels.append(node.tag)
            node = node.parent
        return tuple(reversed(labels))

    def depth(self) -> int:
        return len(self.label_path()) - 1

    def __repr__(self) -> str:
        return f"<XMLNode {self.tag} [{self.start_pos},{self.end_pos}]>"


@dataclass
class Document:
    """A parsed document: its element tree plus its token stream.

    ``tokens`` holds every indexable term occurrence in position order;
    structural tags consumed positions too, so token positions are not
    contiguous integers.
    """

    docid: int
    root: XMLNode
    tokens: list[TokenOccurrence] = field(default_factory=list)
    #: Total number of positions assigned (tags + tokens).
    position_count: int = 0

    def elements(self) -> Iterator[XMLNode]:
        """All element nodes in document (pre)order."""
        return self.root.iter()

    def element_count(self) -> int:
        return sum(1 for _ in self.elements())

    def tokens_in_span(self, start_pos: int, end_pos: int) -> list[TokenOccurrence]:
        """Token occurrences strictly inside ``(start_pos, end_pos)``.

        Linear scan — used by tests and small examples, not by the
        retrieval paths (those use the PostingLists index).
        """
        return [t for t in self.tokens if start_pos < t.position < end_pos]

    def find_by_end(self, end_pos: int) -> XMLNode | None:
        """Locate the element whose close tag sits at *end_pos*."""
        for node in self.elements():
            if node.end_pos == end_pos:
                return node
        return None
