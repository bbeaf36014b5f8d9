"""TRX101/TRX102/TRX103 — lock discipline wherever a lock is declared.

Classes declare which mutex guards which attributes::

    class Autopilot:
        __guarded_by__ = {"_cycle_lock": ("cycles", "last_report")}

The declaration is the opt-in: the rules run on every module that
carries one, whatever package it lives in.  The intra-function rule
then requires every write to a guarded attribute (plain attribute
assignment, augmented assignment, or a subscript store on the
attribute) to happen

* inside ``with self.<lock>:`` (or ``with <x>.<lock>:``) for a plain
  mutex, or ``with <x>.<lock>.write():`` for a reader-writer lock —
  local aliases (``lock = self._lock; with lock:``) are resolved — or
* inside a function whose name ends in ``_locked`` (the repo-wide
  convention for "caller holds the lock"), or
* inside ``__init__``/``__post_init__``/``__new__`` (construction is
  single-threaded), or
* inside a function decorated with ``mutates_engine_state`` (the
  runtime sanitizer enforces the writer-side contract instead).

A guarded write that is lexically under the *read* side of an RW lock
(``with <x>.<lock>.read():``) is its own rule, TRX102 — that is the
"mutating the engine under a read lock" bug class the serving
invariants forbid.

The ``*_locked`` convention is checked across the call graph: a
``*_locked`` function's uncovered guarded writes become
a *lock requirement* propagated up the call graph — every call site
must hold the lock, pass the buck through another ``*_locked`` frame,
or be a constructor/decorated mutator; the first caller that does none
of these gets the TRX101 (or, under a read lock, TRX102) at its call
site.  TRX103 adds static lock-order checking: each ``with``
acquisition made while other locks are (lexically or interprocedurally)
held contributes an ordering edge, and any cycle in that graph is a
potential ABBA deadlock the runtime sanitizer could only catch by
actually interleaving.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..core import Finding, Module, Rule
from . import terminal_attr

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..flow.project import Project
    from ..flow.summaries import LockViolation

__all__ = ["LockDisciplineChecker"]

_EXEMPT_FUNCTIONS = {"__init__", "__post_init__", "__new__", "__del__"}
_EXEMPT_DECORATORS = {"mutates_engine_state"}

_MEMO_REQUIREMENTS = "lock.requirement_violations"
_MEMO_CYCLES = "lock.order_cycles"


def _guarded_declarations(tree: ast.Module) -> dict[str, str]:
    """Module-wide ``attribute name -> guarding lock attribute`` map."""
    guarded: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            if not isinstance(statement, ast.Assign):
                continue
            if not any(isinstance(target, ast.Name)
                       and target.id == "__guarded_by__"
                       for target in statement.targets):
                continue
            if not isinstance(statement.value, ast.Dict):
                continue
            for key, value in zip(statement.value.keys,
                                  statement.value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue
                if isinstance(value, (ast.Tuple, ast.List)):
                    for element in value.elts:
                        if (isinstance(element, ast.Constant)
                                and isinstance(element.value, str)):
                            guarded[element.value] = key.value
    return guarded


def _with_guards(item: ast.withitem,
                 aliases: dict[str, str]) -> tuple[str, str] | None:
    """``(lock attribute, side)`` for one with-item, if lock-shaped.

    ``with self._lock:`` -> ``("_lock", "plain")``;
    ``with self.lock.write():`` -> ``("lock", "write")``;
    ``with self.lock.read():`` -> ``("lock", "read")``.
    A bare name (``with lock:``) resolves through local aliases
    recorded from ``lock = self._lock``-style assignments.
    """
    def resolve(expr: ast.expr) -> str | None:
        name = terminal_attr(expr)
        if name is not None and isinstance(expr, ast.Name):
            return aliases.get(name, name)
        return name

    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        side = expr.func.attr
        if side in ("write", "read"):
            lock = resolve(expr.func.value)
            if lock is not None:
                return lock, side
        return None
    lock = resolve(expr)
    if lock is not None:
        return lock, "plain"
    return None


def _written_attrs(statement: ast.stmt) -> list[tuple[str, int, int]]:
    """Guardable attribute names written by one statement."""
    targets: list[ast.expr] = []
    if isinstance(statement, ast.Assign):
        targets = list(statement.targets)
    elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
        targets = [statement.target]
    written: list[tuple[str, int, int]] = []
    stack = targets
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Attribute):
            written.append((target.attr, target.lineno, target.col_offset))
        elif isinstance(target, ast.Subscript):
            attr = terminal_attr(target.value)
            if attr is not None and isinstance(target.value, ast.Attribute):
                written.append((attr, target.lineno, target.col_offset))
    return written


def _record_alias(statement: ast.stmt, aliases: dict[str, str]) -> None:
    """Track ``lock = self._lock`` / ``lk = group._state_lock`` aliases."""
    if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
        return
    target = statement.targets[0]
    if not isinstance(target, ast.Name):
        return
    if isinstance(statement.value, ast.Attribute):
        aliases[target.id] = statement.value.attr
    elif target.id in aliases:
        del aliases[target.id]


class LockDisciplineChecker:
    name = "lock-discipline"
    rules = (
        Rule("TRX101", "writes to __guarded_by__ attributes must hold the "
                       "declared lock (or run in a *_locked function whose "
                       "callers hold it)"),
        Rule("TRX102", "guarded attributes must not be written under the "
                       "read side of an RW lock"),
        Rule("TRX103", "the static lock-order graph (with-acquisitions "
                       "under held locks, across calls) must be acyclic"),
    )

    def check(self, module: Module, project: "Project") -> Iterator[Finding]:
        guarded = _guarded_declarations(module.tree)
        if guarded:
            yield from self._walk(module, module.tree.body, guarded,
                                  active=(), exempt=False, aliases={})
        yield from self._interprocedural(module, project)
        yield from self._lock_order(module, project)

    # ------------------------------------------------------------------
    # Intra-function rule (alias-aware)
    # ------------------------------------------------------------------
    def _walk(self, module: Module, body: list[ast.stmt],
              guarded: dict[str, str], active: tuple[tuple[str, str], ...],
              exempt: bool, aliases: dict[str, str]) -> Iterator[Finding]:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(
                    module, statement.body, guarded, active,
                    exempt=self._exempt_function(statement), aliases={})
                continue
            if isinstance(statement, ast.ClassDef):
                yield from self._walk(module, statement.body, guarded,
                                      active, exempt=False, aliases={})
                continue
            _record_alias(statement, aliases)
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                entered = tuple(
                    guard for guard in
                    (_with_guards(item, aliases)
                     for item in statement.items)
                    if guard is not None)
                yield from self._walk(module, statement.body, guarded,
                                      active + entered, exempt, aliases)
                continue
            if not exempt:
                yield from self._check_statement(module, statement,
                                                 guarded, active)
            # Compound statements (if/for/try/...) need their blocks
            # walked with the same guard context.
            for field in ("body", "orelse", "finalbody"):
                blocks = getattr(statement, field, None)
                if blocks:
                    yield from self._walk(module, blocks, guarded,
                                          active, exempt, aliases)
            for handler in getattr(statement, "handlers", []) or []:
                yield from self._walk(module, handler.body, guarded,
                                      active, exempt, aliases)

    def _exempt_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        if node.name in _EXEMPT_FUNCTIONS or node.name.endswith("_locked"):
            return True
        for decorator in node.decorator_list:
            name = terminal_attr(decorator if not isinstance(decorator, ast.Call)
                                 else decorator.func)
            if name in _EXEMPT_DECORATORS:
                return True
        return False

    def _check_statement(self, module: Module, statement: ast.stmt,
                         guarded: dict[str, str],
                         active: tuple[tuple[str, str], ...]) -> Iterator[Finding]:
        if not isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            return
        for attr, line, col in _written_attrs(statement):
            lock = guarded.get(attr)
            if lock is None:
                continue
            sides = {side for name, side in active if name == lock}
            if "plain" in sides or "write" in sides:
                continue
            if "read" in sides:
                yield Finding(
                    "TRX102", module.path, line, col + 1,
                    f"write to {attr!r} under the read side of "
                    f"{lock!r}; mutations need the writer side")
            else:
                yield Finding(
                    "TRX101", module.path, line, col + 1,
                    f"write to {attr!r} without holding {lock!r} "
                    f"(declared in __guarded_by__)")

    # ------------------------------------------------------------------
    # Cross-function requirements and lock order
    # ------------------------------------------------------------------
    def _interprocedural(self, module: Module,
                         project: "Project") -> Iterator[Finding]:
        violations = project.memo.get(_MEMO_REQUIREMENTS)
        if violations is None:
            from ..flow.summaries import lock_requirement_violations
            violations = lock_requirement_violations(project)
            project.memo[_MEMO_REQUIREMENTS] = violations
        assert isinstance(violations, list)
        for violation in violations:
            self._narrow_violation(violation)
            if violation.site.path != module.path:
                continue
            target_name = violation.target.rsplit(".", 1)[-1]
            if violation.rule == "TRX102":
                yield Finding(
                    "TRX102", violation.site.path, violation.site.line,
                    violation.site.col + 1,
                    f"call to {violation.site.callee_name}() under the "
                    f"read side of {violation.lock.attr!r}, but "
                    f"{target_name}() writes state guarded by it")
            else:
                yield Finding(
                    "TRX101", violation.site.path, violation.site.line,
                    violation.site.col + 1,
                    f"call to {violation.site.callee_name}() without "
                    f"holding {violation.lock.attr!r}, which "
                    f"{target_name}() requires for its guarded writes")

    @staticmethod
    def _narrow_violation(violation: "LockViolation") -> None:
        """Typing helper: assert the memoized element type."""
        from ..flow.summaries import LockViolation
        assert isinstance(violation, LockViolation)

    def _lock_order(self, module: Module,
                    project: "Project") -> Iterator[Finding]:
        cycles = project.memo.get(_MEMO_CYCLES)
        if cycles is None:
            from ..flow.summaries import lock_order_cycles
            cycles = lock_order_cycles(project)
            project.memo[_MEMO_CYCLES] = cycles
        assert isinstance(cycles, list)
        emitted: set[tuple[str, int]] = set()
        for locks, edges in cycles:
            rendered = " -> ".join(lock.attr for lock in locks)
            for edge in edges:
                if edge.path != module.path:
                    continue
                mark = (edge.path, edge.line)
                if mark in emitted:
                    continue
                emitted.add(mark)
                yield Finding(
                    "TRX103", edge.path, edge.line, edge.col + 1,
                    f"acquiring {edge.inner.attr!r} while holding "
                    f"{edge.outer.attr!r} completes a lock-order cycle "
                    f"({rendered}); a concurrent opposite-order "
                    f"acquisition can deadlock")
