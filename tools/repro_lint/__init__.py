"""repro_lint — the project-specific static-analysis gate over ``src/repro``.

An AST-based invariant lint suite for the invariants no generic linter
can express and no test reliably schedules: lock discipline, charged
block decodes on query paths, set-order iteration in the golden-path
modules, the serving layer's exception policy, resource lifecycle and
protocol conformance.  Unused imports and untyped defs are ruff's and
mypy's (``pyproject.toml``), not ours.

Run it from the repository root as
``PYTHONPATH=src:tools python -m repro_lint src/repro``; the exit status
is the CI gate.  It is a repository tool, not part of the installed
package: it parses ``src/repro`` without importing it, and nothing in
``repro`` imports it.  Rules are documented in ``docs/analysis.md``;
individual findings can be waived with a ``# repro: allow[TRX###]
reason`` comment on (or just above) the offending line.
"""

from .core import RULES, AnalysisError, Finding, Module, run_analysis

__all__ = ["AnalysisError", "Finding", "Module", "RULES", "run_analysis"]
