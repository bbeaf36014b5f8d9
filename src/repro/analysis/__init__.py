"""repro.analysis — the project-specific static-analysis gate.

An AST-based invariant lint suite encoding the rules that keep the
reproduction honest: lock discipline in the serving layer, cost
charging on every block-decode path, determinism in golden-path
modules, a central telemetry-key registry, exception policy in service
paths, resource lifecycle and protocol conformance.  Unused imports and
untyped defs are ruff's and mypy's (``pyproject.toml``), not ours.

Run it as ``python -m repro.analysis src/repro`` (or ``repro analyze``);
the exit status is the CI gate.  Rules are documented in
``docs/analysis.md``; individual findings can be waived with a
``# repro: allow[TRX###] reason`` comment on (or just above) the
offending line.
"""

from .core import Finding, Module, RULES, run_analysis

__all__ = ["Finding", "Module", "RULES", "run_analysis"]
