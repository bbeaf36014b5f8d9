"""repro.analysis.flow — the whole-program dataflow engine.

The per-file checkers of PR 4 are blind across call boundaries: a
``*_locked`` helper that mutates guarded state is exempt inside its own
body, but nothing checked that its callers actually hold the lock; an
uncharged block decode hidden behind an owner-module wrapper never
showed up on a query path.  This package closes that gap:

* :mod:`project` builds a project-wide symbol table and call graph over
  every analyzed module — functions and methods by qualified name,
  class hierarchies, import maps, and one :class:`CallSite` per call
  with its *lexical context* (locks held, read/write side, ``muted()``
  scopes) attached to the edge;
* :mod:`cfg` builds per-function control-flow graphs (with optional
  may-raise edges) for the all-exit-paths analyses — resources closed
  on every path, telemetry emitted on every exit;
* :mod:`summaries` computes interprocedural function summaries (locks
  required on entry, locks possibly held on entry, uncharged decodes,
  telemetry emission) by fixpoint over the call graph, plus the static
  lock-order graph whose cycles complement the runtime sanitizer.

The engine is consulted by checkers through the ``project`` argument of
``Checker.check``, which every run supplies — purely lexical rules
ignore it, the lock-discipline / cost-charging rules and the
TRX8xx/TRX9xx families read call-graph context and summaries from it.
"""

from .project import CallSite, ClassInfo, FunctionInfo, Project

__all__ = ["CallSite", "ClassInfo", "FunctionInfo", "Project"]
