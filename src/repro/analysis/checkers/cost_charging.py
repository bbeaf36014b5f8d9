"""TRX201/TRX202 — every block decode on a query path must be charged.

The block-oriented access paths (PR 2) route all query-time block reads
through :meth:`BlockSequence.read_block` / ``find_first_block_ge`` so
the active :class:`CostModel` sees every decode.  Two escape hatches
undermine that accounting:

* ``BlockSequence.entries()`` / ``catalog.segment_entries`` decode
  whole sequences without charging — legitimate for offline
  maintenance (index builds, persistence), a silent cost leak anywhere
  on a query path.  TRX201 flags those calls in the
  query-facing packages unless they are lexically inside a
  ``with <cost_model>.muted():`` block (the documented "deliberately
  uncharged" marker).
* Reaching into ``BlockSequence`` privates (``._payloads``,
  ``._decoded``) bypasses both charging *and* the compressed
  representation; only ``repro.storage.blocks`` itself may touch them
  (TRX202).

TRX201 also fires *across* functions: a
query-path call into a helper that transitively performs an uncharged
decode is flagged at the call site — but only when the helper itself is
exempt from the intra rule (it lives in an owner module or outside the
query-facing packages), so each leak is reported once at the boundary
where it becomes invisible, not cascaded up every caller.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..core import Finding, Module, Rule
from . import attr_chain, terminal_attr

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..flow.project import Project

__all__ = ["CostChargingChecker"]

_SCOPES = ("repro.retrieval", "repro.index", "repro.storage")
#: Modules that own the uncharged primitives and may use them freely.
_OWNER_MODULES = ("repro.storage.blocks", "repro.storage.serialization")
_UNCHARGED_CALLS = {"entries", "segment_entries"}
_PRIVATE_BLOCK_ATTRS = {"_payloads", "_decoded"}

_MEMO_UNCHARGED = "cost.uncharged_functions"


def _in_packages(module_name: str, prefixes: tuple[str, ...]) -> bool:
    return any(module_name == prefix or module_name.startswith(prefix + ".")
               for prefix in prefixes)


def _is_muted_with(statement: ast.With | ast.AsyncWith) -> bool:
    for item in statement.items:
        expr = item.context_expr
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "muted"):
            return True
    return False


class CostChargingChecker:
    name = "cost-charging"
    rules = (
        Rule("TRX201", "uncharged block decodes (entries()/"
                       "segment_entries), direct or through an exempt "
                       "helper, are banned on query paths unless inside a "
                       "CostModel.muted() scope"),
        Rule("TRX202", "BlockSequence private internals (_payloads/_decoded) "
                       "may only be touched by repro.storage.blocks"),
    )

    def check(self, module: Module, project: "Project") -> Iterator[Finding]:
        if not module.in_package(*_SCOPES):
            return
        owner = module.in_package(*_OWNER_MODULES)
        yield from self._walk(module, module.tree.body, muted=False,
                              owner=owner)
        if not owner:
            yield from self._interprocedural(module, project)

    def _walk(self, module: Module, body: list[ast.stmt], *,
              muted: bool, owner: bool) -> Iterator[Finding]:
        for statement in body:
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                inner_muted = muted or _is_muted_with(statement)
                for item in statement.items:
                    yield from self._scan_expr(module, item.context_expr,
                                               muted=muted, owner=owner)
                yield from self._walk(module, statement.body,
                                      muted=inner_muted, owner=owner)
                continue
            for node in ast.iter_child_nodes(statement):
                if isinstance(node, ast.expr):
                    yield from self._scan_expr(module, node,
                                               muted=muted, owner=owner)
            for field in ("body", "orelse", "finalbody"):
                blocks = getattr(statement, field, None)
                if blocks:
                    yield from self._walk(module, blocks,
                                          muted=muted, owner=owner)
            for handler in getattr(statement, "handlers", []) or []:
                yield from self._walk(module, handler.body,
                                      muted=muted, owner=owner)

    def _scan_expr(self, module: Module, expr: ast.expr, *,
                   muted: bool, owner: bool) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and not muted and not owner:
                callee = terminal_attr(node.func)
                if callee in _UNCHARGED_CALLS:
                    yield Finding(
                        "TRX201", module.path, node.lineno,
                        node.col_offset + 1,
                        f"uncharged block decode via {callee}(); route "
                        f"through read_block()/find_first_block_ge() or "
                        f"wrap in a CostModel.muted() scope")
            if isinstance(node, ast.Attribute) and not owner:
                if node.attr in _PRIVATE_BLOCK_ATTRS:
                    chain = attr_chain(node)
                    # Only flag access through another object
                    # (x._payloads), not a module's own self attribute
                    # named identically — self access outside blocks.py
                    # would be a different class's private anyway, but
                    # keep the rule honest and flag those too.
                    if len(chain) >= 2:
                        yield Finding(
                            "TRX202", module.path, node.lineno,
                            node.col_offset + 1,
                            f"access to BlockSequence private "
                            f"{node.attr!r} outside repro.storage.blocks")

    # ------------------------------------------------------------------
    # Cross-function leaks through intra-exempt helpers
    # ------------------------------------------------------------------
    def _interprocedural(self, module: Module,
                         project: "Project") -> Iterator[Finding]:
        uncharged = project.memo.get(_MEMO_UNCHARGED)
        if uncharged is None:
            from ..flow.summaries import uncharged_functions
            uncharged = uncharged_functions(project)
            project.memo[_MEMO_UNCHARGED] = uncharged
        assert isinstance(uncharged, set)
        emitted: set[tuple[int, int]] = set()
        for site in project.call_sites:
            if site.path != module.path or site.muted or site.fallback:
                continue
            if site.callee_name in _UNCHARGED_CALLS:
                continue  # the intra rule already covers direct calls
            for candidate in site.candidates:
                if candidate not in uncharged:
                    continue
                if not self._intra_exempt(project, candidate):
                    continue  # the callee is flagged directly; no cascade
                mark = (site.line, site.col)
                if mark in emitted:
                    break
                emitted.add(mark)
                short = candidate.rsplit(".", 1)[-1]
                yield Finding(
                    "TRX201", module.path, site.line, site.col + 1,
                    f"call to {short}() performs an uncharged block "
                    f"decode transitively; charge via read_block()/"
                    f"find_first_block_ge() or wrap the call in a "
                    f"CostModel.muted() scope")
                break

    @staticmethod
    def _intra_exempt(project: "Project", qualname: str) -> bool:
        """Would the intra rule stay silent inside *qualname*?"""
        info = project.functions.get(qualname)
        if info is None:
            return False
        return (_in_packages(info.module, _OWNER_MODULES)
                or not _in_packages(info.module, _SCOPES))
