"""Project-wide symbol table and context-annotated call graph.

A :class:`Project` is built once per analysis run from every parsed
module.  It resolves three symbol spaces:

* **functions** — every ``def`` (module-level functions and methods)
  under a dotted qualified name (``repro.index.catalog.Catalog.save``);
* **classes** — with their base classes (resolved through import maps
  when project-internal), declared ``__guarded_by__`` maps and method
  tables;
* **imports** — a per-module map from local name to the dotted thing it
  binds, used for call resolution.

Call sites are resolved to candidate callees through four strategies,
in order: same-module names, from-imports, module-attribute chains, and
``self.method`` lookup through the class MRO.  Unresolvable attribute
calls fall back to a method-name index (every project method with that
name) and are marked ``fallback=True`` so rules can decide whether an
over-approximated edge is acceptable.

Each call site carries its *lexical context*: the locks held at the
call (class-qualified where the receiver is ``self``, with local
aliases like ``lock = self._lock`` resolved), whether any of them is
the write or read side of an RW lock, and whether a
``CostModel.muted()`` scope is active.  Those annotations are what the
interprocedural rules propagate along the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from ..checkers import terminal_attr

if TYPE_CHECKING:  # pragma: no cover - type-only import avoids a cycle
    from ..core import Module

__all__ = ["Lock", "CallSite", "Acquisition", "FunctionInfo", "ClassInfo",
           "Project", "lock_matches"]

#: Constructors run single-threaded; writes and calls inside them are
#: exempt from lock requirements.
CTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__", "__del__"})


@dataclass(frozen=True)
class Lock:
    """One lock identity: attribute name, optionally class-qualified.

    ``self._lock`` inside ``repro.replica.deltalog.DeltaLog`` becomes
    ``Lock("_lock", "repro.replica.deltalog.DeltaLog")``; a lock reached
    through an unknown receiver keeps ``owner=None`` and matches by
    attribute name alone.
    """

    attr: str
    owner: str | None = None

    def render(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def lock_matches(held: Lock, required: Lock) -> bool:
    """Does holding *held* satisfy a requirement for *required*?

    Attribute names must match; class qualification must match when both
    sides carry one (an unqualified side matches any owner).
    """
    if held.attr != required.attr:
        return False
    if held.owner is None or required.owner is None:
        return True
    return held.owner == required.owner


@dataclass(frozen=True)
class CallSite:
    """One call expression, annotated with its lexical context."""

    caller: str                       #: qualname of the enclosing function
    path: str
    line: int
    col: int
    callee_name: str                  #: terminal name as written
    candidates: tuple[str, ...]       #: resolved callee qualnames
    fallback: bool                    #: resolved only via the name index
    is_method_call: bool              #: written as ``x.name(...)``
    locks: tuple[tuple[Lock, str], ...]   #: (lock, side) held lexically
    muted: bool                       #: inside ``CostModel.muted()``

    def holds(self, required: Lock, *, sides: tuple[str, ...]) -> bool:
        """Is *required* held at this site on one of *sides*?"""
        return any(side in sides and lock_matches(lock, required)
                   for lock, side in self.locks)

    @property
    def write_side(self) -> bool:
        """Is any plain mutex or RW write side held here?"""
        return any(side in ("plain", "write") for _, side in self.locks)

    @property
    def read_side_only(self) -> bool:
        """Is the lexical context a read lock with no write-side hold?"""
        return (not self.write_side
                and any(side == "read" for _, side in self.locks))


@dataclass(frozen=True)
class Acquisition:
    """One ``with``-statement lock acquisition inside a function."""

    function: str
    path: str
    line: int
    col: int
    lock: Lock
    side: str
    #: Locks already held lexically when this one is taken.
    outer: tuple[Lock, ...]


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: str
    path: str
    name: str
    class_qualname: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    decorators: frozenset[str]

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    @property
    def is_ctor(self) -> bool:
        return self.name in CTOR_NAMES

    @property
    def locked_convention(self) -> bool:
        """Does the name promise "caller holds the lock"?"""
        return self.name.endswith("_locked")

    def decorated_with(self, name: str) -> bool:
        return name in self.decorators


@dataclass
class ClassInfo:
    """One class definition with its guard declarations and methods."""

    qualname: str
    module: str
    node: ast.ClassDef
    base_names: tuple[str, ...]
    guarded_by: dict[str, str] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> frozenset[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = terminal_attr(target)
        if name is not None:
            names.add(name)
    return frozenset(names)


def _guard_map(node: ast.ClassDef) -> dict[str, str]:
    """``attribute -> lock attribute`` from a ``__guarded_by__`` literal."""
    guarded: dict[str, str] = {}
    for statement in node.body:
        if not isinstance(statement, ast.Assign):
            continue
        if not any(isinstance(target, ast.Name)
                   and target.id == "__guarded_by__"
                   for target in statement.targets):
            continue
        if not isinstance(statement.value, ast.Dict):
            continue
        for key, value in zip(statement.value.keys, statement.value.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            if isinstance(value, (ast.Tuple, ast.List)):
                for element in value.elts:
                    if (isinstance(element, ast.Constant)
                            and isinstance(element.value, str)):
                        guarded[element.value] = key.value
    return guarded


class Project:
    """Symbol table + call graph over one set of analyzed modules."""

    def __init__(self, modules: Sequence["Module"]) -> None:
        self.modules = list(modules)
        self.module_by_name: dict[str, "Module"] = {}
        for module in self.modules:
            self.module_by_name.setdefault(module.module, module)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: method name -> every project method with that name.
        self.methods_by_name: dict[str, list[str]] = {}
        #: per-module ``local name -> dotted target`` binding map.
        self.imports: dict[str, dict[str, str]] = {}
        self.call_sites: list[CallSite] = []
        self.acquisitions: list[Acquisition] = []
        #: callee qualname -> sites calling it (candidates incl. fallback).
        self.callers: dict[str, list[CallSite]] = {}
        #: caller qualname -> its outgoing sites.
        self.sites_in: dict[str, list[CallSite]] = {}
        #: Scratch space for whole-program results computed once per
        #: run and shared across per-module checker invocations.
        self.memo: dict[str, object] = {}

        for module in self.modules:
            self._collect_imports(module)
        for module in self.modules:
            self._collect_symbols(module)
        for module in self.modules:
            self._collect_calls(module)
        for site in self.call_sites:
            self.sites_in.setdefault(site.caller, []).append(site)
            for candidate in site.candidates:
                self.callers.setdefault(candidate, []).append(site)

    # ------------------------------------------------------------------
    # Symbol collection
    # ------------------------------------------------------------------
    def _is_package(self, module: "Module") -> bool:
        return module.path.endswith("__init__.py")

    def _collect_imports(self, module: "Module") -> None:
        bindings: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bindings[local] = (alias.name if alias.asname
                                       else alias.name.split(".")[0])
                    if alias.asname:
                        bindings[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = (f"{base}.{alias.name}" if base
                                       else alias.name)
        self.imports[module.module] = bindings

    def _resolve_from_base(self, module: "Module",
                           node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        parts = module.module.split(".")
        if not self._is_package(module):
            parts = parts[:-1]
        parts = parts[:len(parts) - (node.level - 1)] if node.level > 1 else parts
        if not parts:
            return node.module
        base = ".".join(parts)
        return f"{base}.{node.module}" if node.module else base

    def _owning_module(self, dotted: str) -> str | None:
        """The longest project-module prefix of *dotted*, if any."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            prefix = ".".join(parts[:length])
            if prefix in self.module_by_name:
                return prefix
        return None

    def _collect_symbols(self, module: "Module") -> None:
        def visit(body: list[ast.stmt], class_info: ClassInfo | None) -> None:
            for statement in body:
                if isinstance(statement, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    if class_info is not None:
                        qualname = f"{class_info.qualname}.{statement.name}"
                        class_info.methods[statement.name] = qualname
                    else:
                        qualname = f"{module.module}.{statement.name}"
                    info = FunctionInfo(
                        qualname=qualname, module=module.module,
                        path=module.path, name=statement.name,
                        class_qualname=(class_info.qualname
                                        if class_info else None),
                        node=statement,
                        decorators=_decorator_names(statement))
                    self.functions[qualname] = info
                    if class_info is not None:
                        self.methods_by_name.setdefault(
                            statement.name, []).append(qualname)
                    # Nested defs are walked for calls but not given
                    # project-level identities.
                elif isinstance(statement, ast.ClassDef):
                    qualname = f"{module.module}.{statement.name}"
                    bases = tuple(
                        name for name in
                        (self._base_name(expr) for expr in statement.bases)
                        if name is not None)
                    info = ClassInfo(qualname=qualname, module=module.module,
                                     node=statement, base_names=bases,
                                     guarded_by=_guard_map(statement))
                    self.classes[qualname] = info
                    visit(statement.body, info)

        visit(module.tree.body, None)

    def _base_name(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Subscript):  # Generic[...] bases
            expr = expr.value
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return ".".join(parts)
        return None

    # ------------------------------------------------------------------
    # Class resolution
    # ------------------------------------------------------------------
    def resolve_class(self, module_name: str, name: str) -> ClassInfo | None:
        """Resolve a class name as written in *module_name*."""
        direct = self.classes.get(f"{module_name}.{name}")
        if direct is not None:
            return direct
        bindings = self.imports.get(module_name, {})
        head = name.split(".")[0]
        bound = bindings.get(head)
        if bound is None:
            return None
        dotted = bound + name[len(head):]
        info = self.classes.get(dotted)
        if info is not None:
            return info
        owner = self._owning_module(dotted)
        if owner is not None and dotted.startswith(owner + "."):
            return self.classes.get(dotted)
        return None

    def mro(self, class_info: ClassInfo) -> Iterator[ClassInfo]:
        """*class_info* then its project-internal bases, depth-first."""
        seen: set[str] = set()
        stack = [class_info]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            for base_name in current.base_names:
                base = self.resolve_class(current.module, base_name)
                if base is not None:
                    stack.append(base)

    def lookup_method(self, class_info: ClassInfo,
                      name: str) -> str | None:
        for klass in self.mro(class_info):
            found = klass.methods.get(name)
            if found is not None:
                return found
        return None

    def guard_for(self, class_info: ClassInfo, attr: str) -> str | None:
        """The lock attribute guarding *attr*, searching the MRO."""
        for klass in self.mro(class_info):
            lock = klass.guarded_by.get(attr)
            if lock is not None:
                return lock
        return None

    # ------------------------------------------------------------------
    # Call + context collection
    # ------------------------------------------------------------------
    def _collect_calls(self, module: "Module") -> None:
        def visit(body: list[ast.stmt], class_info: ClassInfo | None) -> None:
            for statement in body:
                if isinstance(statement, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    if class_info is not None:
                        qualname = f"{class_info.qualname}.{statement.name}"
                    else:
                        qualname = f"{module.module}.{statement.name}"
                    walker = _FunctionWalker(self, module, qualname,
                                             class_info)
                    walker.walk(statement.body)
                elif isinstance(statement, ast.ClassDef):
                    info = self.classes.get(
                        f"{module.module}.{statement.name}")
                    visit(statement.body, info)

        visit(module.tree.body, None)

    def resolve_call(self, module: "Module", class_info: ClassInfo | None,
                     func: ast.expr) -> tuple[tuple[str, ...], bool, bool]:
        """``(candidates, fallback, is_method_call)`` for a call target."""
        if isinstance(func, ast.Name):
            name = func.id
            local = self.functions.get(f"{module.module}.{name}")
            if local is not None:
                return (local.qualname,), False, False
            bound = self.imports.get(module.module, {}).get(name)
            if bound is not None and bound in self.functions:
                return (bound,), False, False
            return (), False, False
        if not isinstance(func, ast.Attribute):
            return (), False, False
        parts: list[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        method = parts[0]
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            root = parts[0]
            # self.method() -> MRO lookup in the enclosing class.
            if root == "self" and len(parts) == 2 and class_info is not None:
                found = self.lookup_method(class_info, method)
                if found is not None:
                    return (found,), False, True
            # module.attr chains through the import map.
            bindings = self.imports.get(module.module, {})
            bound = bindings.get(root)
            if bound is not None:
                dotted = ".".join([bound] + parts[1:])
                if dotted in self.functions:
                    return (dotted,), False, True
        # Fallback: every project method with this terminal name.
        candidates = tuple(self.methods_by_name.get(method, ()))
        return candidates, bool(candidates), True


class _FunctionWalker:
    """Walks one function body tracking lock / muted lexical context."""

    def __init__(self, project: Project, module: "Module", qualname: str,
                 class_info: ClassInfo | None) -> None:
        self.project = project
        self.module = module
        self.qualname = qualname
        self.class_info = class_info
        #: local name -> Lock for ``lock = self._lock`` style aliases.
        self.aliases: dict[str, Lock] = {}

    def walk(self, body: list[ast.stmt],
             locks: tuple[tuple[Lock, str], ...] = (),
             muted: bool = False) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested function: fresh context (it runs when called,
                # not where defined), same enclosing identity.
                self.walk(statement.body, (), False)
                continue
            if isinstance(statement, ast.Assign):
                self._record_alias(statement)
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                entered = list(locks)
                inner_muted = muted
                for item in statement.items:
                    self._scan_expr(item.context_expr, locks, muted)
                    guard = self.lock_from_with(item)
                    if guard is not None:
                        self.project.acquisitions.append(Acquisition(
                            function=self.qualname, path=self.module.path,
                            line=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                            lock=guard[0], side=guard[1],
                            outer=tuple(lock for lock, _ in entered)))
                        entered.append(guard)
                    if self._is_muted_item(item):
                        inner_muted = True
                self.walk(statement.body, tuple(entered), inner_muted)
                continue
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, locks, muted)
            for field_name in ("body", "orelse", "finalbody"):
                blocks = getattr(statement, field_name, None)
                if blocks:
                    self.walk(blocks, locks, muted)
            for handler in getattr(statement, "handlers", []) or []:
                self.walk(handler.body, locks, muted)

    # -- context helpers ----------------------------------------------
    def _record_alias(self, statement: ast.Assign) -> None:
        """Track ``lock = self._lock`` / ``lk = other.lock`` aliases."""
        if len(statement.targets) != 1:
            return
        target = statement.targets[0]
        if not isinstance(target, ast.Name):
            return
        lock = self._lock_identity(statement.value)
        if lock is not None and self._looks_like_lock(lock.attr):
            self.aliases[target.id] = lock
        elif target.id in self.aliases:
            del self.aliases[target.id]

    @staticmethod
    def _looks_like_lock(attr: str) -> bool:
        lowered = attr.lower()
        return "lock" in lowered or "mutex" in lowered or "rw" in lowered

    def _lock_identity(self, expr: ast.expr) -> Lock | None:
        """The Lock named by *expr*, resolving self-attrs and aliases."""
        if isinstance(expr, ast.Attribute):
            if (isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and self.class_info is not None):
                return Lock(expr.attr, self.class_info.qualname)
            return Lock(expr.attr, None)
        if isinstance(expr, ast.Name):
            alias = self.aliases.get(expr.id)
            if alias is not None:
                return alias
            return Lock(expr.id, None)
        return None

    def lock_from_with(self, item: ast.withitem) -> tuple[Lock, str] | None:
        """``(lock, side)`` for one with-item, if lock-shaped."""
        expr = item.context_expr
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            side = expr.func.attr
            if side in ("write", "read"):
                lock = self._lock_identity(expr.func.value)
                if lock is not None:
                    return lock, side
            return None
        lock = self._lock_identity(expr)
        if lock is not None and self._looks_like_lock(lock.attr):
            return lock, "plain"
        return None

    @staticmethod
    def _is_muted_item(item: ast.withitem) -> bool:
        expr = item.context_expr
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "muted")

    # -- call recording ------------------------------------------------
    def _scan_expr(self, expr: ast.expr,
                   locks: tuple[tuple[Lock, str], ...],
                   muted: bool) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            callee = terminal_attr(node.func)
            if callee is None:
                continue
            candidates, fallback, is_method = self.project.resolve_call(
                self.module, self.class_info, node.func)
            self.project.call_sites.append(CallSite(
                caller=self.qualname, path=self.module.path,
                line=node.lineno, col=node.col_offset,
                callee_name=callee, candidates=candidates,
                fallback=fallback, is_method_call=is_method,
                locks=locks, muted=muted))
