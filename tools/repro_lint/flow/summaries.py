"""Interprocedural function summaries over the project call graph.

Four analyses, all fixpoints over :class:`~repro_lint.flow.project.
Project` edges:

* **Lock requirements** — a ``*_locked`` function that writes
  ``__guarded_by__`` state without taking the lock itself *requires*
  that lock on entry.  The requirement propagates up through further
  ``*_locked`` callers; a call site that neither holds the lock nor
  passes the buck by convention is a violation (the cross-function
  TRX101/TRX102).
* **Write-context requirements** — call sites of
  ``@mutates_engine_state`` methods must run on the writer side: under
  a plain mutex / RW ``write()`` scope, inside a constructor, inside
  another decorated method, or inside a ``*_locked`` function whose own
  callers are checked the same way (the TRX902 engine).
* **Uncharged-decode summaries** — a function that (transitively)
  performs an uncharged block decode outside a ``muted()`` scope is
  summarized as uncharged; calls to such functions from query-path
  packages are the cross-function TRX201.  Pragma-allowed sites are
  treated as documented-uncharged and do not poison the summary.
* **Lock-order graph** — each ``with`` acquisition, combined with the
  locks possibly held on entry (propagated down the call graph), adds
  ordering edges; cycles are static lock-order inversions (TRX103)
  complementing the runtime sanitizer.

Plus a small **telemetry-emission summary** (does a function,
transitively, emit telemetry?) consumed by the TRX903 exit checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from .project import CallSite, FunctionInfo, Lock, Project

__all__ = ["LockViolation", "WriteSite", "guarded_writes",
           "lock_requirement_violations", "write_context_violations",
           "uncharged_functions", "replay_owns", "telemetry_emitters",
           "lock_order_cycles", "LockOrderEdge"]

MUTATOR_DECORATOR = "mutates_engine_state"
UNCHARGED_CALLS = frozenset({"entries", "segment_entries"})
#: The uncharged decode behind a replayed read: the block-open log reads
#: blocks with it and charges their opens when it replays, so its own
#: calls leave it charged; any other caller is an uncharged decode.
REPLAYED_CALLS = frozenset({"peek_columns"})
REPLAY_OWNER = "repro.storage.blocks.BlockOpenLog"
TELEMETRY_METHODS = frozenset({"incr", "observe", "register_gauge"})


def replay_owns(caller: str) -> bool:
    """Is *caller* (a qualname) the block-open log's own code?"""
    return caller.startswith(REPLAY_OWNER + ".")


@dataclass(frozen=True)
class WriteSite:
    """One write to a guarded attribute inside some function."""

    function: str
    attr: str
    lock: Lock
    line: int
    col: int
    covered: bool      #: lexically under the lock's plain/write side
    read_side: bool    #: lexically under the read side only


@dataclass(frozen=True)
class LockViolation:
    """One cross-function lock-discipline violation at a call site."""

    rule: str          #: "TRX101" or "TRX102"
    site: CallSite
    lock: Lock
    target: str        #: the requiring function's qualname
    chain: tuple[str, ...]


def _function_for(project: Project, qualname: str) -> FunctionInfo | None:
    return project.functions.get(qualname)


# ----------------------------------------------------------------------
# Guarded writes (shared by the intra rule and the requirement seeds)
# ----------------------------------------------------------------------
def guarded_writes(project: Project,
                   info: FunctionInfo) -> list[WriteSite]:
    """Every write to a ``__guarded_by__`` attribute in *info*.

    Lock coverage is judged lexically with local aliases resolved (the
    collection in :class:`_GuardWalker` mirrors the project walker's
    context tracking).
    """
    if info.class_qualname is None:
        return []
    class_info = project.classes.get(info.class_qualname)
    if class_info is None:
        return []
    guard_of = {attr: project.guard_for(class_info, attr)
                for klass in project.mro(class_info)
                for attr in klass.guarded_by}
    if not guard_of:
        return []
    walker = _GuardWalker(project, info, guard_of)
    walker.walk(info.node.body, ())
    return walker.writes


class _GuardWalker:
    """Collects guarded-attribute writes with lock context + aliases."""

    def __init__(self, project: Project, info: FunctionInfo,
                 guard_of: dict[str, str | None]) -> None:
        self.project = project
        self.info = info
        self.guard_of = guard_of
        self.writes: list[WriteSite] = []
        self.aliases: dict[str, str] = {}

    def walk(self, body: list[ast.stmt],
             active: tuple[tuple[str, str], ...]) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.walk(statement.body, active)
                continue
            if isinstance(statement, ast.Assign):
                self._record_alias(statement)
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                entered = list(active)
                for item in statement.items:
                    guard = self._with_guard(item)
                    if guard is not None:
                        entered.append(guard)
                self.walk(statement.body, tuple(entered))
                continue
            self._check_statement(statement, active)
            for field_name in ("body", "orelse", "finalbody"):
                blocks = getattr(statement, field_name, None)
                if blocks:
                    self.walk(blocks, active)
            for handler in getattr(statement, "handlers", []) or []:
                self.walk(handler.body, active)

    def _record_alias(self, statement: ast.Assign) -> None:
        if len(statement.targets) != 1:
            return
        target = statement.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = statement.value
        if isinstance(value, ast.Attribute):
            self.aliases[target.id] = value.attr
        elif target.id in self.aliases:
            del self.aliases[target.id]

    def _with_guard(self, item: ast.withitem) -> tuple[str, str] | None:
        expr = item.context_expr
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            side = expr.func.attr
            if side in ("write", "read"):
                name = self._resolve_name(expr.func.value)
                if name is not None:
                    return name, side
            return None
        name = self._resolve_name(expr)
        if name is not None:
            return name, "plain"
        return None

    def _resolve_name(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return self.aliases.get(expr.id, expr.id)
        return None

    def _check_statement(self, statement: ast.stmt,
                         active: tuple[tuple[str, str], ...]) -> None:
        if not isinstance(statement, (ast.Assign, ast.AugAssign,
                                      ast.AnnAssign)):
            return
        targets: list[ast.expr]
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        else:
            targets = [statement.target]
        stack = targets
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
                continue
            attr: str | None = None
            line = col = 0
            if isinstance(target, ast.Attribute):
                attr, line, col = target.attr, target.lineno, target.col_offset
            elif (isinstance(target, ast.Subscript)
                  and isinstance(target.value, ast.Attribute)):
                attr = target.value.attr
                line, col = target.lineno, target.col_offset
            if attr is None:
                continue
            lock_attr = self.guard_of.get(attr)
            if lock_attr is None:
                continue
            sides = {side for name, side in active if name == lock_attr}
            self.writes.append(WriteSite(
                function=self.info.qualname, attr=attr,
                lock=Lock(lock_attr, self.info.class_qualname),
                line=line, col=col,
                covered=bool(sides & {"plain", "write"}),
                read_side=(not (sides & {"plain", "write"})
                           and "read" in sides)))


# ----------------------------------------------------------------------
# Cross-function lock requirements (TRX101/TRX102 upgrade)
# ----------------------------------------------------------------------
def lock_requirement_violations(project: Project) -> list[LockViolation]:
    """Call sites that break a callee's caller-holds-the-lock contract."""
    seeds: list[tuple[str, Lock]] = []
    for info in project.functions.values():
        if not info.locked_convention:
            continue
        if info.is_ctor or info.decorated_with(MUTATOR_DECORATOR):
            continue
        required: set[Lock] = set()
        for write in guarded_writes(project, info):
            if not write.covered:
                required.add(write.lock)
        for lock in sorted(required, key=lambda l: (l.attr, l.owner or "")):
            seeds.append((info.qualname, lock))

    violations: list[LockViolation] = []
    emitted: set[tuple[str, int, int, str, str]] = set()
    for target, lock in seeds:
        _propagate_lock(project, target, lock, (target,), violations,
                        emitted, set())
    violations.sort(key=lambda v: (v.site.path, v.site.line, v.site.col,
                                   v.rule))
    return violations


def _propagate_lock(project: Project, qualname: str, lock: Lock,
                    chain: tuple[str, ...],
                    violations: list[LockViolation],
                    emitted: set[tuple[str, int, int, str, str]],
                    visited: set[tuple[str, str]]) -> None:
    key = (qualname, lock.render())
    if key in visited:
        return
    visited.add(key)
    for site in project.callers.get(qualname, ()):
        if site.holds(lock, sides=("plain", "write")):
            continue
        caller = _function_for(project, site.caller)
        if caller is None:
            continue
        if caller.is_ctor or caller.decorated_with(MUTATOR_DECORATOR):
            continue
        if site.holds(lock, sides=("read",)):
            mark = (site.path, site.line, site.col, "TRX102", lock.attr)
            if mark not in emitted:
                emitted.add(mark)
                violations.append(LockViolation("TRX102", site, lock,
                                                chain[0], chain))
            continue
        if caller.locked_convention:
            _propagate_lock(project, caller.qualname, lock,
                            (caller.qualname,) + chain, violations,
                            emitted, visited)
            continue
        mark = (site.path, site.line, site.col, "TRX101", lock.attr)
        if mark not in emitted:
            emitted.add(mark)
            violations.append(LockViolation("TRX101", site, lock,
                                            chain[0], chain))


# ----------------------------------------------------------------------
# Write-context requirements (TRX902)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WriteContextViolation:
    """A mutator reached from a context that is not write-side."""

    site: CallSite
    target: str
    read_side: bool
    chain: tuple[str, ...]


def write_context_violations(project: Project) -> list[WriteContextViolation]:
    """Call sites of ``@mutates_engine_state`` methods off the writer side."""
    mutators = sorted(
        info.qualname for info in project.functions.values()
        if info.decorated_with(MUTATOR_DECORATOR))
    violations: list[WriteContextViolation] = []
    emitted: set[tuple[str, int, int]] = set()
    for target in mutators:
        _propagate_write_context(project, target, (target,), violations,
                                 emitted, set())
    violations.sort(key=lambda v: (v.site.path, v.site.line, v.site.col))
    return violations


def _propagate_write_context(project: Project, qualname: str,
                             chain: tuple[str, ...],
                             violations: list[WriteContextViolation],
                             emitted: set[tuple[str, int, int]],
                             visited: set[str]) -> None:
    if qualname in visited:
        return
    visited.add(qualname)
    for site in project.callers.get(qualname, ()):
        caller = _function_for(project, site.caller)
        if caller is None:
            continue
        if site.write_side:
            continue
        if caller.is_ctor or caller.decorated_with(MUTATOR_DECORATOR):
            continue
        if site.read_side_only:
            mark = (site.path, site.line, site.col)
            if mark not in emitted:
                emitted.add(mark)
                violations.append(WriteContextViolation(
                    site, chain[0], True, chain))
            continue
        if caller.locked_convention:
            _propagate_write_context(project, caller.qualname,
                                     (caller.qualname,) + chain,
                                     violations, emitted, visited)
            continue
        mark = (site.path, site.line, site.col)
        if mark not in emitted:
            emitted.add(mark)
            violations.append(WriteContextViolation(
                site, chain[0], False, chain))


# ----------------------------------------------------------------------
# Uncharged-decode summaries (TRX201 upgrade)
# ----------------------------------------------------------------------
def uncharged_functions(project: Project) -> set[str]:
    """Functions that (transitively) decode blocks uncharged.

    A direct uncharged call under a ``muted()`` scope, or carrying a
    ``# repro: allow[TRX201]`` pragma (a documented uncharged
    maintenance path), does not poison the summary; neither does a
    call forwarded through a ``muted()`` scope, nor the block-open
    log's own reads (:data:`REPLAYED_CALLS`), which it charges on
    replay.
    """
    dirty: set[str] = set()
    for site in project.call_sites:
        if site.muted:
            continue
        if site.callee_name in REPLAYED_CALLS:
            if replay_owns(site.caller):
                continue
        elif site.callee_name not in UNCHARGED_CALLS:
            continue
        module = project.module_by_name.get(_module_of(project, site.caller))
        if module is not None and module.is_allowed("TRX201", site.line):
            continue
        dirty.add(site.caller)
    # Upward fixpoint: callers of dirty functions become dirty unless
    # the call is muted.
    changed = True
    while changed:
        changed = False
        for name in sorted(dirty):
            for site in project.callers.get(name, ()):
                if site.muted or site.caller in dirty:
                    continue
                dirty.add(site.caller)
                changed = True
    return dirty


def _module_of(project: Project, qualname: str) -> str:
    info = project.functions.get(qualname)
    if info is not None:
        return info.module
    return qualname.rsplit(".", 1)[0]


# ----------------------------------------------------------------------
# Telemetry-emission summaries (TRX903 support)
# ----------------------------------------------------------------------
def _emits_directly(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in TELEMETRY_METHODS:
            continue
        receiver = func.value
        chain: list[str] = []
        while isinstance(receiver, ast.Attribute):
            chain.append(receiver.attr)
            receiver = receiver.value
        if isinstance(receiver, ast.Name):
            chain.append(receiver.id)
        if any("telemetry" in part.lower() for part in chain):
            return True
    return False


def telemetry_emitters(project: Project) -> set[str]:
    """Functions that (transitively) emit telemetry."""
    emitters = {info.qualname for info in project.functions.values()
                if _emits_directly(info.node)}
    changed = True
    while changed:
        changed = False
        for name in sorted(emitters):
            for site in project.callers.get(name, ()):
                if site.fallback or site.caller in emitters:
                    continue
                emitters.add(site.caller)
                changed = True
    return emitters


# ----------------------------------------------------------------------
# Static lock-order graph (TRX103)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockOrderEdge:
    """One observed ordering: *outer* held while *inner* is acquired."""

    outer: Lock
    inner: Lock
    path: str
    line: int
    col: int
    function: str


def _entry_held(project: Project) -> dict[str, frozenset[Lock]]:
    """Locks possibly held when each function is entered (may-analysis).

    Propagated down resolved (non-fallback) call edges only; fallback
    edges over-approximate too wildly to be useful here.
    """
    held: dict[str, set[Lock]] = {name: set() for name in project.functions}
    changed = True
    while changed:
        changed = False
        for name in project.functions:
            incoming: set[Lock] = set()
            for site in project.callers.get(name, ()):
                if site.fallback:
                    continue
                incoming.update(lock for lock, side in site.locks)
                incoming.update(held.get(site.caller, ()))
            if not incoming <= held[name]:
                held[name].update(incoming)
                changed = True
    return {name: frozenset(locks) for name, locks in held.items()}


def lock_order_edges(project: Project) -> list[LockOrderEdge]:
    held = _entry_held(project)
    edges: list[LockOrderEdge] = []
    seen: set[tuple[Lock, Lock, str, int]] = set()
    for acq in project.acquisitions:
        outers = set(acq.outer) | set(held.get(acq.function, frozenset()))
        for outer in outers:
            if outer == acq.lock:
                continue
            mark = (outer, acq.lock, acq.path, acq.line)
            if mark in seen:
                continue
            seen.add(mark)
            edges.append(LockOrderEdge(outer, acq.lock, acq.path,
                                       acq.line, acq.col, acq.function))
    return edges


def lock_order_cycles(project: Project) -> list[tuple[tuple[Lock, ...],
                                                      list[LockOrderEdge]]]:
    """Every lock-order cycle: the cycle's locks plus its edges."""
    edges = lock_order_edges(project)
    graph: dict[Lock, set[Lock]] = {}
    for edge in edges:
        graph.setdefault(edge.outer, set()).add(edge.inner)
        graph.setdefault(edge.inner, set())
    sccs = _tarjan(graph)
    cycles: list[tuple[tuple[Lock, ...], list[LockOrderEdge]]] = []
    for component in sccs:
        if len(component) < 2:
            continue
        members = set(component)
        cycle_edges = [edge for edge in edges
                       if edge.outer in members and edge.inner in members]
        ordered = tuple(sorted(component, key=lambda l: l.render()))
        cycles.append((ordered, cycle_edges))
    cycles.sort(key=lambda item: tuple(l.render() for l in item[0]))
    return cycles


def _tarjan(graph: dict[Lock, set[Lock]]) -> list[list[Lock]]:
    index: dict[Lock, int] = {}
    low: dict[Lock, int] = {}
    on_stack: set[Lock] = set()
    stack: list[Lock] = []
    counter = [0]
    components: list[list[Lock]] = []

    def strongconnect(node: Lock) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for neighbour in sorted(graph.get(node, ()),
                                key=lambda l: l.render()):
            if neighbour not in index:
                strongconnect(neighbour)
                low[node] = min(low[node], low[neighbour])
            elif neighbour in on_stack:
                low[node] = min(low[node], index[neighbour])
        if low[node] == index[node]:
            component: list[Lock] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            components.append(component)

    for node in sorted(graph, key=lambda l: l.render()):
        if node not in index:
            strongconnect(node)
    return components


def iter_write_sites(project: Project) -> Iterable[tuple[FunctionInfo,
                                                         WriteSite]]:
    """Every guarded write in the project, with its enclosing function."""
    for info in project.functions.values():
        for write in guarded_writes(project, info):
            yield info, write
