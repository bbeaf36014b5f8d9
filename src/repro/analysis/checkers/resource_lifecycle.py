"""TRX801/TRX802/TRX803 — resource lifecycle on every path.

The storage stack's correctness story is *publish-or-abort*: a staged
backend write either reaches ``sync()`` + ``close()`` or is abandoned
by ``close()`` with the previous on-disk state intact.  That only holds
if the backend object actually reaches ``close()`` on **every** path —
including the exceptional ones, which is exactly where leak bugs hide.
These rules run a per-function CFG (with may-raise edges) over every
tracked acquisition:

* **TRX801** — a ``make_backend(...)``/``open_backend(...)`` result
  bound to a local must be closed on every exit: a ``with`` block, a
  ``try/finally`` calling ``close()``, returning it, or storing it on
  an attribute (ownership transfer) all discharge the obligation.
* **TRX802** — same check for raw handles: ``open(...)``,
  ``sqlite3.connect(...)``, ``mmap.mmap(...)``, ``os.fdopen(...)``.
* **TRX803** — staging state must never escape a backend: a ``return``
  or ``yield`` whose expression references a staging path/attribute
  (``*staging*``) publishes a path that only ``os.replace`` may
  consume.

Only the simple ``var = acquire(...)`` form is tracked; acquisitions
consumed directly by a ``with`` statement are already safe by
construction, and tuple-unpacked or attribute-stored acquisitions are
ownership transfers the intra-function CFG cannot (and need not)
follow.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..core import Finding, Module, Rule
from . import terminal_attr

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..flow.cfg import Node
    from ..flow.project import Project

__all__ = ["ResourceLifecycleChecker"]

_BACKEND_ACQUIRERS = frozenset({"make_backend", "open_backend"})
_HANDLE_ACQUIRERS = frozenset({"open", "connect", "fdopen", "mmap"})
#: "staging" names a *location* (the temp path publish-or-abort hinges
#: on); "staged" content read back through the write-mode API is the
#: backend working as intended and is deliberately not matched.
_STAGING_MARKERS = ("staging",)
_BACKEND_SCOPE = ("repro.backend",)


def _acquisitions(func: ast.FunctionDef | ast.AsyncFunctionDef
                  ) -> list[tuple[ast.Assign, str, str]]:
    """``(assign, var, rule)`` for each tracked acquisition statement."""
    found: list[tuple[ast.Assign, str, str]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        callee = terminal_attr(value.func)
        if callee in _BACKEND_ACQUIRERS:
            found.append((node, target.id, "TRX801"))
        elif callee in _HANDLE_ACQUIRERS:
            found.append((node, target.id, "TRX802"))
    return found


def _references(expr: ast.AST, var: str) -> bool:
    return any(isinstance(node, ast.Name) and node.id == var
               for node in ast.walk(expr))


def _discharges(node: "Node", var: str) -> bool:
    """Does this CFG node release/transfer ownership of *var*?"""
    stmt = node.stmt
    if stmt is None:
        return False
    if node.kind == "with":
        # `with var:` / `with closing(var):` — the context manager owns
        # the release from here on.
        return _references(stmt, var)
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _references(stmt.value, var)
    if isinstance(stmt, ast.Assign):
        # Rebinding ends tracking; storing onto an attribute/subscript
        # transfers ownership to the holder.
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == var:
                return True
            if (isinstance(target, (ast.Attribute, ast.Subscript))
                    and isinstance(stmt.value, ast.Name)
                    and stmt.value.id == var):
                return True
    # Any statement performing var.close() counts as closing even if
    # the close itself raises (nothing more we could do on that path).
    for child in ast.walk(stmt):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "close"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == var):
            return True
    return False


def _staging_reference(expr: ast.expr) -> str | None:
    """The staging-marked name *expr* mentions, if any."""
    for node in ast.walk(expr):
        name: str | None = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is not None:
            lowered = name.lower()
            if any(marker in lowered for marker in _STAGING_MARKERS):
                return name
    return None


class ResourceLifecycleChecker:
    name = "resource-lifecycle"
    rules = (
        Rule("TRX801", "storage backends acquired with make_backend/"
                       "open_backend must be closed on every path, "
                       "including exceptional ones (publish-or-abort)"),
        Rule("TRX802", "file/sqlite/mmap handles must be closed on every "
                       "exit (use with, try/finally, or transfer "
                       "ownership)"),
        Rule("TRX803", "staging paths must not escape a backend via "
                       "return/yield; only os.replace may publish them"),
    )

    def check(self, module: Module, project: "Project") -> Iterator[Finding]:
        from ..flow.cfg import build_cfg
        for info in project.functions.values():
            if info.path != module.path:
                continue
            acquisitions = _acquisitions(info.node)
            if acquisitions:
                cfg = build_cfg(info.node, exception_edges=True)
                node_of = {id(node.stmt): node for node in cfg.nodes
                           if node.stmt is not None}
                for assign, var, rule in acquisitions:
                    acq_node = node_of.get(id(assign))
                    if acq_node is None:
                        continue
                    reached = cfg.reachable_without(
                        list(acq_node.succ),
                        lambda node: _discharges(node, var))
                    if (cfg.exit_normal in reached
                            or cfg.exit_exceptional in reached):
                        what = ("backend" if rule == "TRX801" else "handle")
                        yield Finding(
                            rule, module.path, assign.lineno,
                            assign.col_offset + 1,
                            f"{what} {var!r} acquired here can reach a "
                            f"function exit without close(); wrap in "
                            f"with/try-finally or transfer ownership")
            if module.in_package(*_BACKEND_SCOPE):
                yield from self._staging_escapes(module, info.node)

    def _staging_escapes(self, module: Module,
                         func: ast.FunctionDef | ast.AsyncFunctionDef
                         ) -> Iterator[Finding]:
        for node in ast.walk(func):
            expr: ast.expr | None = None
            if isinstance(node, ast.Return):
                expr = node.value
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                expr = node.value
            if expr is None:
                continue
            name = _staging_reference(expr)
            if name is not None:
                yield Finding(
                    "TRX803", module.path, node.lineno, node.col_offset + 1,
                    f"staging state {name!r} escapes the backend via "
                    f"return/yield; staged paths are published only "
                    f"through os.replace")
