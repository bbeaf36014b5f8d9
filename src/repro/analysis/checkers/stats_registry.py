"""TRX401/TRX402 — telemetry keys come from the central registry.

Dashboards and the autopilot read counters by name; a typo in an
``incr("search.requets")`` call silently creates a parallel counter and
the real one flatlines.  The fix is one source of truth:
:mod:`repro.service.registry` declares every counter, histogram and
gauge name (plus the dynamic prefixes like ``search.method.``).

* TRX401 — a literal key passed to ``incr``/``observe``/
  ``register_gauge`` that is not in the registry (and matches no
  registered prefix).
* TRX402 — a *non*-literal key (f-strings must start with a registered
  prefix; arbitrary expressions defeat static checking entirely).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Module, Rule
from . import terminal_attr
from ...service import registry

__all__ = ["StatsRegistryChecker"]

_SCOPES = ("repro.service", "repro.shard")
#: The registry itself and the Telemetry implementation are exempt —
#: they define/handle the keys rather than emit them.
_EXEMPT_MODULES = ("repro.service.registry", "repro.service.telemetry")

_KIND_BY_METHOD = {
    "incr": "counter",
    "observe": "histogram",
    "register_gauge": "gauge",
}
_CHECKS = {
    "counter": (registry.is_registered_counter, "counter"),
    "histogram": (registry.is_registered_histogram, "histogram"),
    "gauge": (registry.is_registered_gauge, "gauge"),
}
_PREFIXES = {
    "counter": registry.COUNTER_PREFIXES,
    "histogram": registry.HISTOGRAM_PREFIXES,
    "gauge": (),
}


class StatsRegistryChecker:
    name = "stats-registry"
    rules = (
        Rule("TRX401", "telemetry keys must be declared in "
                       "repro.service.registry"),
        Rule("TRX402", "telemetry keys must be string literals (or "
                       "f-strings on a registered prefix)"),
    )

    def check(self, module: Module, project: object) -> Iterator[Finding]:
        if not module.in_package(*_SCOPES):
            return
        if module.in_package(*_EXEMPT_MODULES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            method = terminal_attr(node.func)
            kind = _KIND_BY_METHOD.get(method or "")
            if kind is None or not node.args:
                continue
            # Only telemetry-shaped receivers: x.incr(...), not a local
            # function incr(...).
            if not isinstance(node.func, ast.Attribute):
                continue
            yield from self._check_key(module, node.args[0], kind)

    def _check_key(self, module: Module, key: ast.expr,
                   kind: str) -> Iterator[Finding]:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            is_registered, label = _CHECKS[kind]
            if not is_registered(key.value):
                yield Finding(
                    "TRX401", module.path, key.lineno, key.col_offset + 1,
                    f"{label} key {key.value!r} is not declared in "
                    f"repro.service.registry")
            return
        if isinstance(key, ast.JoinedStr):
            prefix = ""
            if key.values and isinstance(key.values[0], ast.Constant):
                prefix = str(key.values[0].value)
            allowed = _PREFIXES[kind]
            if prefix and any(prefix.startswith(registered)
                              or registered.startswith(prefix)
                              for registered in allowed):
                return
            yield Finding(
                "TRX402", module.path, key.lineno, key.col_offset + 1,
                f"dynamic {kind} key does not start with a registered "
                f"prefix ({', '.join(allowed) or 'none declared'})")
            return
        yield Finding(
            "TRX402", module.path, key.lineno, key.col_offset + 1,
            f"{kind} key must be a string literal from "
            f"repro.service.registry, not a computed expression")
