"""TRX901/TRX902/TRX903 — protocol conformance across the call graph.

Three replication/serving protocols are load-bearing enough to machine-
check:

* **TRX901 — closed-union dispatch exhaustiveness.**  A module-level
  ``X = Union[A, B, C]`` whose members are all classes of that module
  is a *closed union* (the replication wire protocol's
  ``ReplicationRecord`` is the motivating case).  Any function that
  isinstance-dispatches over two or more members must handle **all**
  of them — adding a record type then fails analysis at every
  dispatch site that was not updated, instead of silently no-op'ing on
  followers.
* **TRX902 — write-side reachability.**  Every call to a
  ``@mutates_engine_state`` method must come from a write-side context:
  lexically under a plain mutex / RW ``write()`` scope, inside a
  constructor or another decorated mutator, or inside a ``*_locked``
  function whose own callers are checked transitively (the
  interprocedural engine's upward propagation).  A call under a read
  lock, or from a plain function with no lock at all, is flagged.
* **TRX903 — telemetry on every exit of serving handlers.**  Functions
  marked ``@serving_handler`` must emit telemetry (directly or through
  a callee that transitively does) before **every** return and explicit
  raise — the classic miss being an early guard-clause raise that
  leaves a request invisible to ``/stats``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..core import Finding, Module, Rule

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..flow.project import ClassInfo, Project

__all__ = ["ProtocolChecker"]

_WRITE_SCOPES = ("repro.service", "repro.shard", "repro.replica")
_HANDLER_DECORATOR = "serving_handler"

#: Memo keys on Project.memo.
_MEMO_UNIONS = "protocol.unions"
_MEMO_WRITE_VIOLATIONS = "protocol.write_violations"
_MEMO_EMITTERS = "protocol.emitters"


def _closed_unions(project: "Project") -> dict[str, frozenset[str]]:
    """``union name -> member class qualnames`` for closed unions."""
    unions: dict[str, frozenset[str]] = {}
    for module in project.modules:
        for statement in module.tree.body:
            if (not isinstance(statement, ast.Assign)
                    or len(statement.targets) != 1
                    or not isinstance(statement.targets[0], ast.Name)):
                continue
            member_names = _union_member_names(statement.value)
            if member_names is None or len(member_names) < 2:
                continue
            members: list[str] = []
            for name in member_names:
                info = project.resolve_class(module.module, name)
                if info is None or info.module != module.module:
                    break
                members.append(info.qualname)
            else:
                union_name = statement.targets[0].id
                unions[f"{module.module}.{union_name}"] = frozenset(members)
    return unions


def _union_member_names(expr: ast.expr) -> list[str] | None:
    """Member names of a ``Union[...]`` / ``A | B`` type alias."""
    if (isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "Union"):
        inner = expr.slice
        elements = (list(inner.elts) if isinstance(inner, ast.Tuple)
                    else [inner])
        names = [element.id for element in elements
                 if isinstance(element, ast.Name)]
        return names if len(names) == len(elements) else None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        left = _union_member_names(expr.left)
        right = _union_member_names(expr.right)
        if left is None and isinstance(expr.left, ast.Name):
            left = [expr.left.id]
        if right is None and isinstance(expr.right, ast.Name):
            right = [expr.right.id]
        if left is None or right is None:
            return None
        return left + right
    return None


def _isinstance_tests(func: ast.FunctionDef | ast.AsyncFunctionDef
                      ) -> dict[str, list[tuple[str, int]]]:
    """``tested variable -> [(class name, line)]`` isinstance calls."""
    tests: dict[str, list[tuple[str, int]]] = {}
    for node in ast.walk(func):
        if (not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Name)
                or node.func.id != "isinstance"
                or len(node.args) != 2
                or not isinstance(node.args[0], ast.Name)):
            continue
        subject = node.args[0].id
        klass = node.args[1]
        candidates = (list(klass.elts) if isinstance(klass, ast.Tuple)
                      else [klass])
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                tests.setdefault(subject, []).append(
                    (candidate.id, node.lineno))
    return tests


class ProtocolChecker:
    name = "protocol-conformance"
    rules = (
        Rule("TRX901", "isinstance dispatch over a closed union (e.g. "
                       "ReplicationRecord) must handle every member type"),
        Rule("TRX902", "@mutates_engine_state methods may only be reached "
                       "from write-side contexts (write lock, constructor, "
                       "mutator, or checked *_locked chain)"),
        Rule("TRX903", "@serving_handler functions must emit telemetry on "
                       "every return and raise"),
    )

    def check(self, module: Module, project: "Project") -> Iterator[Finding]:
        yield from self._union_dispatch(module, project)
        yield from self._write_side(module, project)
        yield from self._handler_exits(module, project)

    # -- TRX901 --------------------------------------------------------
    def _union_dispatch(self, module: Module,
                        project: "Project") -> Iterator[Finding]:
        unions = project.memo.get(_MEMO_UNIONS)
        if unions is None:
            unions = _closed_unions(project)
            project.memo[_MEMO_UNIONS] = unions
        if not unions:
            return
        member_sets = list(unions.items())
        for info in project.functions.values():
            if info.path != module.path:
                continue
            for subject, tested in _isinstance_tests(info.node).items():
                resolved: dict[str, int] = {}
                for name, line in tested:
                    klass = project.resolve_class(info.module, name)
                    if klass is not None:
                        resolved.setdefault(klass.qualname, line)
                for union_name, members in member_sets:
                    covered = set(resolved) & members
                    if len(covered) < 2 or covered == members:
                        continue
                    missing = sorted(name.rsplit(".", 1)[-1]
                                     for name in members - covered)
                    line = min(resolved[name] for name in covered)
                    yield Finding(
                        "TRX901", module.path, line, 1,
                        f"isinstance dispatch on {subject!r} covers "
                        f"{len(covered)}/{len(members)} members of "
                        f"{union_name.rsplit('.', 1)[-1]}; missing: "
                        f"{', '.join(missing)}")

    # -- TRX902 --------------------------------------------------------
    def _write_side(self, module: Module,
                    project: "Project") -> Iterator[Finding]:
        if not module.in_package(*_WRITE_SCOPES):
            return
        violations = project.memo.get(_MEMO_WRITE_VIOLATIONS)
        if violations is None:
            from ..flow.summaries import write_context_violations
            violations = write_context_violations(project)
            project.memo[_MEMO_WRITE_VIOLATIONS] = violations
        for violation in violations:
            if violation.site.path != module.path:
                continue
            target = violation.target.rsplit(".", 2)
            short = ".".join(target[-2:])
            if violation.read_side:
                detail = ("under the read side of an RW lock; mutators "
                          "need the writer side")
            else:
                detail = ("from a context holding no lock; take the "
                          "write lock or mark the caller *_locked")
            yield Finding(
                "TRX902", violation.site.path, violation.site.line,
                violation.site.col + 1,
                f"call to @mutates_engine_state {short}() {detail}")

    # -- TRX903 --------------------------------------------------------
    def _handler_exits(self, module: Module,
                       project: "Project") -> Iterator[Finding]:
        emitters = project.memo.get(_MEMO_EMITTERS)
        if emitters is None:
            from ..flow.summaries import telemetry_emitters
            emitters = telemetry_emitters(project)
            project.memo[_MEMO_EMITTERS] = emitters
        from ..flow.cfg import build_cfg
        from ..flow.summaries import _emits_directly
        for info in project.functions.values():
            if info.path != module.path:
                continue
            if not info.decorated_with(_HANDLER_DECORATOR):
                continue
            class_info: "ClassInfo | None" = (
                project.classes.get(info.class_qualname)
                if info.class_qualname else None)

            def emits(stmt: ast.AST) -> bool:
                if _emits_directly(stmt):
                    return True
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    candidates, fallback, _ = project.resolve_call(
                        module, class_info, node.func)
                    if not fallback and any(candidate in emitters
                                            for candidate in candidates):
                        return True
                return False

            cfg = build_cfg(info.node, exception_edges=False)
            reached = cfg.reachable_without(
                [cfg.entry],
                lambda node: node.stmt is not None and emits(node.stmt),
                exceptional=False)
            flagged: set[int] = set()
            for node in cfg.nodes:
                if node.kind not in ("return", "raise"):
                    continue
                if node not in reached or node.stmt is None:
                    continue
                stmt = node.stmt
                assert isinstance(stmt, ast.stmt)
                if stmt.lineno in flagged:
                    continue
                flagged.add(stmt.lineno)
                exit_kind = ("return" if node.kind == "return"
                             else "raise")
                yield Finding(
                    "TRX903", module.path, stmt.lineno,
                    stmt.col_offset + 1,
                    f"serving handler {info.name}() can {exit_kind} here "
                    f"without emitting telemetry")
            if cfg.exit_normal in reached and any(
                    pred.kind != "return" and pred in reached
                    for pred in cfg.exit_normal.pred):
                yield Finding(
                    "TRX903", module.path, info.node.lineno,
                    info.node.col_offset + 1,
                    f"serving handler {info.name}() can fall off the end "
                    f"without emitting telemetry")
