"""Build planning: dedup and grouping of segment build requests.

A :class:`BuildTarget` names one segment to materialize — ``(kind,
term, scope)``; ``scope=None`` is the universal list.  The optional
``cover`` field records which sids the requester actually needs covered
(used by the engine's already-satisfied check) without participating in
equality, so the same physical build requested for two different
queries dedups to one target.

The planner is an ordered set: insertion order is preserved, duplicates
collapse, and :meth:`BuildPlanner.plan` snapshots the result.  Grouping
by term is what lets the builder sweep each term once per ERA pass and
fan its scored column out to every target of that term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import RetrievalError

__all__ = ["BuildTarget", "BuildPlan", "BuildPlanner"]

_KINDS = ("rpl", "erpl")


@dataclass(frozen=True)
class BuildTarget:
    """One segment to materialize."""

    kind: str
    term: str
    scope: frozenset[int] | None = None
    #: Sids the requester needs covered; excluded from equality/hash so
    #: identical builds requested for different queries dedup.
    cover: frozenset[int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise RetrievalError(f"unknown segment kind {self.kind!r}")

    @property
    def is_universal(self) -> bool:
        return self.scope is None

    def describe(self) -> str:
        scope = "ALL" if self.scope is None else f"{len(self.scope)} sids"
        return f"{self.kind.upper()}({self.term!r}, {scope})"


@dataclass(frozen=True)
class BuildPlan:
    """A deduplicated, deterministically ordered set of build targets."""

    targets: tuple[BuildTarget, ...]

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self) -> Iterator[BuildTarget]:
        return iter(self.targets)

    @property
    def is_empty(self) -> bool:
        return not self.targets

    @property
    def terms(self) -> tuple[str, ...]:
        """Distinct terms, in first-request order."""
        seen: dict[str, None] = {}
        for target in self.targets:
            seen.setdefault(target.term, None)
        return tuple(seen)

    def sid_sets(self) -> tuple[frozenset[int] | None, ...]:
        """Distinct scopes, in first-request order (None = universal)."""
        seen: dict[frozenset[int] | None, None] = {}
        for target in self.targets:
            seen.setdefault(target.scope, None)
        return tuple(seen)


class BuildPlanner:
    """Collects build requests and emits a deduplicated plan."""

    def __init__(self) -> None:
        self._targets: dict[BuildTarget, BuildTarget] = {}

    def add(self, kind: str, term: str,
            scope: Iterable[int] | None = None,
            cover: Iterable[int] | None = None) -> BuildTarget:
        """Request one segment; repeated identical requests collapse.

        When the same build is requested with different cover sets, the
        stored cover becomes their union (``None`` — "must be the
        universal segment" — absorbs everything): the satisfied-check
        then never skips a build one of the requesters still needs.
        """
        target = BuildTarget(
            kind=kind, term=term,
            scope=None if scope is None else frozenset(scope),
            cover=None if cover is None else frozenset(cover))
        return self.add_target(target)

    def add_target(self, target: BuildTarget) -> BuildTarget:
        existing = self._targets.get(target)
        if existing is None:
            self._targets[target] = target
            return target
        if existing.cover is None or target.cover is None:
            merged_cover = None
        else:
            merged_cover = existing.cover | target.cover
        if merged_cover == existing.cover:
            return existing
        merged = BuildTarget(kind=target.kind, term=target.term,
                             scope=target.scope, cover=merged_cover)
        # Keys compare without cover, so this replaces the stored value
        # in place and keeps first-request order.
        self._targets[merged] = merged
        return merged

    def add_missing(self, missing: Iterable[tuple]) -> None:
        """Request universal segments for ``(kind, term, sids, ...)``
        tuples as produced by ``missing_segments`` (engine 3-tuples and
        sharded 4-tuples both work); the sids become the cover set."""
        for item in missing:
            kind, term = item[0], item[1]
            sids = item[2] if len(item) > 2 and item[2] is not None else ()
            self.add(kind, term, scope=None, cover=sids)

    def __len__(self) -> int:
        return len(self._targets)

    def plan(self) -> BuildPlan:
        # Values, not keys: a cover-merge replaces the stored value while
        # dict key objects are never swapped on update.
        return BuildPlan(targets=tuple(self._targets.values()))
