"""TRX501/TRX502 — exception policy on the serving paths.

``ShardTimeoutError`` and ``ReplicaFaultError`` carry control-flow
meaning in the scatter-gather paths: a handler that catches
``Exception`` (or everything, with a bare ``except:``) can swallow them
and turn a deadline miss into a silently-wrong answer.  Broad handlers
are still sometimes required at outermost worker boundaries — those
sites carry an explicit ``# repro: allow[TRX501]`` with the reason.

* TRX501 — ``except Exception`` / ``except BaseException`` in
  ``repro.service`` or ``repro.shard``.
* TRX502 — bare ``except:`` anywhere in those packages (never
  acceptable; it also catches ``KeyboardInterrupt``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Module, Rule
from . import terminal_attr

__all__ = ["ExceptionPolicyChecker"]

_SCOPES = ("repro.service", "repro.shard")
_BROAD = {"Exception", "BaseException"}


def _handler_names(handler: ast.ExceptHandler) -> list[tuple[str, ast.expr]]:
    if handler.type is None:
        return []
    exprs = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names: list[tuple[str, ast.expr]] = []
    for expr in exprs:
        name = terminal_attr(expr)
        if name is not None:
            names.append((name, expr))
    return names


class ExceptionPolicyChecker:
    name = "exception-policy"
    rules = (
        Rule("TRX501", "no `except Exception`/`except BaseException` in "
                       "service paths — it can swallow ShardTimeoutError/"
                       "ReplicaFaultError control flow"),
        Rule("TRX502", "no bare `except:` in service paths"),
    )

    def check(self, module: Module, project: object) -> Iterator[Finding]:
        if not module.in_package(*_SCOPES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    "TRX502", module.path, node.lineno, node.col_offset + 1,
                    "bare `except:` catches everything including "
                    "KeyboardInterrupt; name the exceptions")
                continue
            for name, expr in _handler_names(node):
                if name in _BROAD:
                    yield Finding(
                        "TRX501", module.path, expr.lineno,
                        expr.col_offset + 1,
                        f"`except {name}` can swallow ShardTimeoutError/"
                        f"ReplicaFaultError; catch specific exceptions or add an "
                        f"allow pragma with the boundary rationale")
