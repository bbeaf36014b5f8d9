"""Structural summaries: partitions of XML elements into extents.

A summary groups together elements that are indistinguishable with
respect to a class of structural queries (paper §2.1).  Each group is an
*extent*, identified by a summary node id (*sid*).  All summaries in
this reproduction are **partition summaries**: the extent of an element
is a function of its (alias-canonicalized) incoming label path.  The
three summaries of the paper's family are instances:

* tag summary — group key is the last label,
* incoming summary — group key is the entire path,
* A(k) index — group key is the path's suffix of length ``k + 1``
  (on trees, k-bisimulation of incoming edges reduces to exactly this).

Each summary retains, per sid, the set of distinct incoming paths its
members exhibit.  That set is what makes *exact* query translation
possible for every summary (see :mod:`repro.summary.matcher`), and what
the retrieval-safety check inspects: an extent can contain an
ancestor–descendant pair if and only if one of its paths is a proper
prefix of another (two elements with the *same* incoming path can never
nest in a tree, because a path determines its depth).
"""

from __future__ import annotations

import copy
from typing import Hashable, Iterator

from ..corpus.alias import AliasMapping
from ..corpus.collection import Collection
from ..corpus.document import Document, XMLNode
from ..errors import SummaryError

__all__ = ["PartitionSummary", "ExtentInfo"]

LabelPath = tuple[str, ...]


class ExtentInfo:
    """Bookkeeping for one summary node (sid)."""

    __slots__ = ("sid", "label", "size", "paths")

    def __init__(self, sid: int, label: str) -> None:
        self.sid = sid
        self.label = label
        self.size = 0
        self.paths: set[LabelPath] = set()

    def __repr__(self) -> str:
        return f"ExtentInfo(sid={self.sid}, label={self.label!r}, size={self.size})"


class PartitionSummary:
    """Base class: partition elements by a function of the incoming path.

    Subclasses override :meth:`group_key`.  Construction walks the
    collection once, assigning a sid to every element; sids are dense
    integers starting at 1, numbered in first-encounter order.
    """

    name = "partition"

    def __init__(self, collection: Collection,
                 alias: AliasMapping | None = None) -> None:
        self.collection = collection
        self.alias = alias if alias is not None else AliasMapping.identity()
        self._key_to_sid: dict[Hashable, int] = {}
        self._extents: dict[int, ExtentInfo] = {}
        #: (docid, end_pos) -> sid for every element in the collection.
        self._assignment: dict[tuple[int, int], int] = {}
        self._build()

    # ------------------------------------------------------------------
    # Partition definition
    # ------------------------------------------------------------------
    def group_key(self, path: LabelPath) -> Hashable:
        """The partition key for an element with canonical path *path*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for document in self.collection:
            self._walk(document.docid, document.root, ())

    def over(self, collection: Collection) -> "PartitionSummary":
        """A summary of this kind — same alias, same parameters (A(k)'s
        k, F&B's round limit) — built over *collection*."""
        fresh = copy.copy(self)
        PartitionSummary.__init__(fresh, collection, self.alias)
        return fresh

    def extend(self, document: Document) -> None:
        """Incorporate a newly added document into the partition.

        Works for every path-determined summary (the group key of an
        element depends only on its own path, so existing assignments
        never change).  Summaries built by global refinement (F&B)
        override this to demand a rebuild.
        """
        self._walk(document.docid, document.root, ())

    def _walk(self, docid: int, node: XMLNode, parent_path: LabelPath) -> None:
        path = parent_path + (self.alias.canonical(node.tag),)
        key = self.group_key(path)
        sid = self._key_to_sid.get(key)
        if sid is None:
            sid = len(self._key_to_sid) + 1
            self._key_to_sid[key] = sid
            self._extents[sid] = ExtentInfo(sid, path[-1])
        info = self._extents[sid]
        info.size += 1
        info.paths.add(path)
        self._assignment[(docid, node.end_pos)] = sid
        for child in node.children:
            self._walk(docid, child, path)

    # ------------------------------------------------------------------
    # Queries against the summary
    # ------------------------------------------------------------------
    @property
    def sid_count(self) -> int:
        return len(self._extents)

    def sids(self) -> list[int]:
        return sorted(self._extents)

    def extent(self, sid: int) -> ExtentInfo:
        try:
            return self._extents[sid]
        except KeyError:
            raise SummaryError(f"unknown sid {sid}") from None

    def label(self, sid: int) -> str:
        return self.extent(sid).label

    def extent_size(self, sid: int) -> int:
        return self.extent(sid).size

    def paths_of(self, sid: int) -> frozenset[LabelPath]:
        return frozenset(self.extent(sid).paths)

    def sid_of(self, docid: int, end_pos: int) -> int:
        """The sid of the element of *docid* ending at *end_pos*."""
        try:
            return self._assignment[(docid, end_pos)]
        except KeyError:
            raise SummaryError(
                f"no element at (docid={docid}, end_pos={end_pos})") from None

    def assignments(self) -> Iterator[tuple[int, int, int]]:
        """Yield (docid, end_pos, sid) for every element."""
        for (docid, end_pos), sid in self._assignment.items():
            yield docid, end_pos, sid

    def sids_with_label(self, label: str) -> set[int]:
        """All sids whose canonical label equals *label* (canonicalized)."""
        canonical = self.alias.canonical(label)
        return {sid for sid, info in self._extents.items() if info.label == canonical}

    # ------------------------------------------------------------------
    # Retrieval safety (paper §2.1)
    # ------------------------------------------------------------------
    def is_retrieval_safe(self) -> bool:
        """True when no extent can hold an ancestor–descendant pair.

        TReX requires this of the summaries it retrieves with: with tag
        positions, an extent iterator assumes its elements never nest.
        """
        return not self.unsafe_sids()

    def unsafe_sids(self) -> set[int]:
        """Sids whose path set contains a proper prefix pair."""
        unsafe: set[int] = set()
        for sid, info in self._extents.items():
            path_set = info.paths
            for path in path_set:
                if any(path[:plen] in path_set for plen in range(1, len(path))):
                    unsafe.add(sid)
                    break
        return unsafe

    def describe(self) -> dict[str, int | str | bool]:
        return {
            "summary": self.name,
            "alias": self.alias.name,
            "nodes": self.sid_count,
            "elements": len(self._assignment),
            "retrieval_safe": self.is_retrieval_safe(),
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} nodes={self.sid_count}>"
