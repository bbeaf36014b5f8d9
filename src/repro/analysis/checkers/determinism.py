"""TRX301/TRX302/TRX303 — determinism of the golden-path modules.

Index construction, scoring and evaluation must be reproducible: the
same corpus and the same query must produce byte-identical indexes and
rankings.  Three hazard classes break that:

* wall-clock reads (``time.time`` & friends, ``datetime.now``) leaking
  into computed results (TRX301) — telemetry and the serving layer are
  out of scope, they are *supposed* to measure wall-clock;
* unseeded randomness: bare ``random.random()`` / ``random.shuffle``
  module-level calls, or ``random.Random()`` constructed without a seed
  (TRX302);
* iterating directly over a set literal / ``set()`` call, whose order
  varies across interpreter runs with hash randomization (TRX303).
  Iterating named set variables is allowed — flagging every such loop
  would drown the signal — the rule targets the obviously-unordered
  inline form.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Module, Rule
from . import attr_chain

__all__ = ["DeterminismChecker"]

_SCOPES = (
    "repro.retrieval", "repro.index", "repro.storage", "repro.scoring",
    "repro.summary", "repro.nexi", "repro.corpus",
    "repro.selfmanage",
)
_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "thread_time"), ("time", "time_ns"),
    ("time", "monotonic_ns"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
}
_RANDOM_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "random_bytes", "getrandbits",
}


class DeterminismChecker:
    name = "determinism"
    rules = (
        Rule("TRX301", "no wall-clock reads in deterministic golden-path "
                       "modules"),
        Rule("TRX302", "no unseeded randomness in deterministic modules"),
        Rule("TRX303", "no iteration directly over set literals/constructors "
                       "(order varies under hash randomization)"),
    )

    def check(self, module: Module, project: object) -> Iterator[Finding]:
        if not module.in_package(*_SCOPES):
            return
        random_aliases = self._random_class_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, random_aliases)
            elif isinstance(node, ast.For):
                yield from self._check_iterable(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iterable(module, generator.iter)

    def _random_class_aliases(self, tree: ast.Module) -> set[str]:
        """Local names bound to ``random.Random`` via from-imports."""
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in ("Random", "SystemRandom"):
                        aliases.add(alias.asname or alias.name)
        return aliases

    def _check_call(self, module: Module, node: ast.Call,
                    random_aliases: set[str]) -> Iterator[Finding]:
        chain = attr_chain(node.func)
        if len(chain) >= 2 and (chain[-2], chain[-1]) in _CLOCK_CALLS:
            yield Finding(
                "TRX301", module.path, node.lineno, node.col_offset + 1,
                f"wall-clock call {'.'.join(chain)}() in a deterministic "
                f"module; results must not depend on the clock")
            return
        if chain[:1] == ["random"] and len(chain) == 2:
            if chain[1] in _RANDOM_FUNCS:
                yield Finding(
                    "TRX302", module.path, node.lineno, node.col_offset + 1,
                    f"module-level random.{chain[1]}() uses the shared "
                    f"unseeded generator; construct random.Random(seed)")
            elif chain[1] == "Random" and not (node.args or node.keywords):
                yield Finding(
                    "TRX302", module.path, node.lineno, node.col_offset + 1,
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed")
        elif (len(chain) == 1 and chain[0] in random_aliases
              and not (node.args or node.keywords)):
            yield Finding(
                "TRX302", module.path, node.lineno, node.col_offset + 1,
                f"{chain[0]}() without a seed is nondeterministic; "
                f"pass an explicit seed")

    def _check_iterable(self, module: Module,
                        iterable: ast.expr) -> Iterator[Finding]:
        unordered = False
        if isinstance(iterable, ast.Set):
            unordered = True
        elif isinstance(iterable, ast.Call):
            chain = attr_chain(iterable.func)
            if chain in (["set"], ["frozenset"]):
                unordered = True
        if unordered:
            yield Finding(
                "TRX303", module.path, iterable.lineno,
                iterable.col_offset + 1,
                "iterating a set literal/constructor directly; order is "
                "hash-randomized — sort it or use a sequence")
