"""Pluggable checkers for the invariant lint suite.

Each module defines one checker class with a ``name``, a tuple of
:class:`~repro.analysis.core.Rule` declarations and a ``check(module, project)``
generator.  New checkers plug in by appending to
:func:`repro.analysis.core._build_checkers`.
"""

from __future__ import annotations

import ast

__all__ = ["terminal_attr", "attr_chain"]


def terminal_attr(node: ast.expr) -> str | None:
    """The final attribute name of an attribute chain, or the bare name.

    ``self.lock`` -> ``lock``; ``a.b.c`` -> ``c``; ``name`` -> ``name``.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def attr_chain(node: ast.expr) -> list[str]:
    """The dotted parts of an attribute chain (empty for non-chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []
