"""Path patterns and their translation to sid sets.

The translation phase of TReX (paper §3.1) maps each query path ``p`` to
the set of sids whose extent intersects ``E_p``, the elements selected
by ``p``.  Because every summary here partitions elements by a function
of the incoming label path — and retains the set of distinct incoming
paths per extent — the intersection test is exact: an extent intersects
``E_p`` iff at least one of its incoming paths matches the pattern.

Patterns are the NEXI/XPath subset: ``/`` (child) and ``//``
(descendant) steps over labels or the ``*`` wildcard, e.g.
``//article//sec`` or ``//bdy//*``.  Under the *vague* interpretation,
labels are canonicalized through the summary's alias mapping before
matching, so ``//article//ss1`` and ``//article//sec`` translate
identically under the INEX alias mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NexiSyntaxError
from .base import LabelPath, PartitionSummary

__all__ = ["PathStep", "PathPattern", "parse_path_pattern", "match_path", "sids_for_pattern"]

WILDCARD = "*"


@dataclass(frozen=True)
class PathStep:
    """One location step: descendant or child axis plus a label test."""

    axis: str  # 'child' or 'descendant'
    label: str  # tag name or '*'

    def matches_label(self, label: str) -> bool:
        return self.label == WILDCARD or self.label == label


@dataclass(frozen=True)
class PathPattern:
    """A parsed path: a sequence of steps applied from the document root."""

    steps: tuple[PathStep, ...]

    def __str__(self) -> str:
        out = []
        for step in self.steps:
            out.append("//" if step.axis == "descendant" else "/")
            out.append(step.label)
        return "".join(out)

    def canonicalized(self, alias: AliasMapping) -> "PathPattern":
        """Apply an alias mapping to every label test (vague matching)."""
        return PathPattern(tuple(
            PathStep(s.axis, s.label if s.label == WILDCARD else alias.canonical(s.label))
            for s in self.steps))

    def concatenated(self, relative: "PathPattern") -> "PathPattern":
        """This pattern followed by *relative* (for nested about paths)."""
        return PathPattern(self.steps + relative.steps)


def parse_path_pattern(text: str) -> PathPattern:
    """Parse ``//a/b//*``-style path syntax into a :class:`PathPattern`."""
    source = text.strip()
    if not source:
        raise NexiSyntaxError("empty path pattern")
    steps: list[PathStep] = []
    i = 0
    while i < len(source):
        if source.startswith("//", i):
            axis = "descendant"
            i += 2
        elif source.startswith("/", i):
            axis = "child"
            i += 1
        else:
            raise NexiSyntaxError(f"expected '/' or '//' in path {text!r}", i)
        start = i
        while i < len(source) and (source[i].isalnum() or source[i] in "_-.*"):
            i += 1
        label = source[start:i]
        if not label:
            raise NexiSyntaxError(f"missing label after axis in path {text!r}", i)
        steps.append(PathStep(axis, label))
    return PathPattern(tuple(steps))


def match_path(pattern: PathPattern, path: LabelPath) -> bool:
    """Does *pattern*, anchored at the root, select an element with *path*?

    The last step must match the last label; a ``child`` step consumes
    exactly one label, a ``descendant`` step allows any gap before its
    label.  Classic O(steps × labels) dynamic program, bottom-up: for
    each step from the last, which path suffixes the steps from it on
    match exactly to the end.
    """
    steps = pattern.steps
    size = len(path)
    if not steps or not size:
        return False
    # after[i]: the steps after the current one match path[i:] exactly.
    after = [False] * size + [True]
    for step in reversed(steps):
        label = step.label
        wild = label == WILDCARD
        here = [False] * (size + 1)
        if step.axis == "child":
            for index in range(size):
                here[index] = after[index + 1] and (wild or path[index] == label)
        else:
            # descendant: the label may land on any position from here on
            for index in range(size - 1, -1, -1):
                here[index] = here[index + 1] or (
                    after[index + 1] and (wild or path[index] == label))
        after = here
    return after[0]


def sids_for_pattern(summary: PartitionSummary, pattern: PathPattern, *,
                     vague: bool = True) -> set[int]:
    """Translate *pattern* into the sids whose extent intersects its result.

    With ``vague=True`` (the paper's setting), the pattern's labels are
    first canonicalized through the summary's alias mapping, so synonym
    tags match.  With ``vague=False`` the pattern must match the
    canonical paths as-is — note the summary itself may already have
    folded synonyms if built with a non-identity alias.
    """
    effective = pattern.canonicalized(summary.alias) if vague else pattern
    result: set[int] = set()
    for sid in summary.sids():
        if any(match_path(effective, path) for path in summary.paths_of(sid)):
            result.add(sid)
    return result
