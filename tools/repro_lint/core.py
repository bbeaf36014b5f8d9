"""Driver, file model and allowlist mechanics for the lint suite.

A :class:`Module` wraps one parsed source file together with its
*pragma allowlist*: ``# repro: allow[TRX101]`` (optionally with a
trailing reason) suppresses that rule on the commented line and on the
line directly below it, and ``# repro: allow-file[TRX501]`` near the
top of a file waives the rule for the whole module.  Fixture files can
override their inferred module identity with
``# repro: module[repro.service.something]`` so rule scoping can be
exercised from any path.

Checkers are plain objects with a ``rules`` tuple and a ``check``
generator; :data:`CHECKERS` is the pluggable registry the CLI and the
tests iterate.  ``check`` receives the whole-program
:class:`~repro_lint.flow.project.Project` alongside the module, so
rules can range from purely lexical to call-graph-wide.

:func:`run_analysis` is the whole driver: parse every source under the
given paths, build the one project over all of them, run every
selected rule on every module, filter by the allowlist, sort.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from .flow.project import Project

__all__ = ["AnalysisError", "Finding", "Module", "Rule", "Checker", "CHECKERS",
           "RULES", "run_analysis", "iter_sources"]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")
_ALLOW_FILE_RE = re.compile(r"#\s*repro:\s*allow-file\[([A-Z0-9,\s]+)\]")
_MODULE_RE = re.compile(r"#\s*repro:\s*module\[([\w.]+)\]")


class AnalysisError(Exception):
    """The tool was misused or hit an unreadable input."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """Identity and one-line invariant statement of a lint rule."""

    rule_id: str
    summary: str


class Module:
    """One parsed source file plus its pragma allowlist."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(f"{path}: cannot parse: {exc}") from exc
        self.lines = source.splitlines()
        #: line number -> rule ids allowed on that line.
        self.allowed: dict[int, frozenset[str]] = {}
        self.allowed_file: frozenset[str] = frozenset()
        module_override: str | None = None
        file_rules: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(text)
            if match:
                rules = frozenset(part.strip()
                                  for part in match.group(1).split(","))
                self.allowed[lineno] = rules
                # A pragma on its own line covers the statement below it.
                self.allowed[lineno + 1] = (
                    self.allowed.get(lineno + 1, frozenset()) | rules)
            match = _ALLOW_FILE_RE.search(text)
            if match:
                file_rules.update(part.strip()
                                  for part in match.group(1).split(","))
            match = _MODULE_RE.search(text)
            if match:
                module_override = match.group(1)
        self.allowed_file = frozenset(file_rules)
        self.module = (module_override if module_override is not None
                       else _infer_module(path))

    def is_allowed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.allowed_file:
            return True
        return rule_id in self.allowed.get(line, frozenset())

    def in_package(self, *prefixes: str) -> bool:
        """Does this module live under any of the dotted *prefixes*?"""
        return any(self.module == prefix or self.module.startswith(prefix + ".")
                   for prefix in prefixes)


def _infer_module(path: str) -> str:
    parts = Path(path).with_suffix("").parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            dotted = list(parts[index:])
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return Path(path).stem


class Checker(Protocol):
    """The pluggable checker interface."""

    name: str
    rules: tuple[Rule, ...]

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        """Yield findings for *module* (allowlist filtering is the
        driver's job).  *project* carries whole-program context."""
        ...  # pragma: no cover - protocol body


def _build_checkers() -> tuple[Checker, ...]:
    from .checkers.cost_charging import CostChargingChecker
    from .checkers.exception_policy import ExceptionPolicyChecker
    from .checkers.lock_discipline import LockDisciplineChecker
    from .checkers.protocol import ProtocolChecker
    from .checkers.resource_lifecycle import ResourceLifecycleChecker

    return (
        LockDisciplineChecker(),
        CostChargingChecker(),
        ExceptionPolicyChecker(),
        ResourceLifecycleChecker(),
        ProtocolChecker(),
    )


CHECKERS: tuple[Checker, ...] = _build_checkers()

#: Every rule the suite knows, keyed by id.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for checker in CHECKERS
    for rule in checker.rules
}


def iter_sources(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under *paths* (files given directly included)."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise AnalysisError(f"no such file or directory: {raw}")
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _validate_select(select: Sequence[str] | None) -> None:
    if not select:
        return
    unknown = [entry for entry in select
               if not any(rule_id.startswith(entry) for rule_id in RULES)]
    if unknown:
        raise AnalysisError(f"unknown rule selector(s): {', '.join(unknown)}")


def run_analysis(paths: Sequence[str], *,
                 select: Sequence[str] | None = None) -> list[Finding]:
    """Run every (or the *select*-ed) rule over *paths*; sorted findings.

    ``select`` entries may be full rule ids (``TRX101``) or family
    prefixes (``TRX1``).  The whole-program :class:`Project` is built
    over **all** the modules read, whatever is selected.
    """
    _validate_select(select)

    def selected(rule_id: str) -> bool:
        if not select:
            return True
        return any(rule_id.startswith(entry) for entry in select)

    modules = [Module(str(source_path), source_path.read_text())
               for source_path in iter_sources(paths)]
    project = Project(modules)
    findings: list[Finding] = []
    for module in modules:
        for checker in CHECKERS:
            if not any(selected(rule.rule_id) for rule in checker.rules):
                continue
            for finding in checker.check(module, project):
                if not selected(finding.rule):
                    continue
                if module.is_allowed(finding.rule, finding.line):
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
