"""Unit tests for the whole-program engine: symbol table, call graph,
CFG construction, and interprocedural summaries."""

from __future__ import annotations

import ast
import textwrap

from repro_lint.core import Module
from repro_lint.flow.cfg import build_cfg
from repro_lint.flow.project import Project
from repro_lint.flow.summaries import (
    lock_requirement_violations, telemetry_emitters, uncharged_functions)


def module(name: str, source: str) -> Module:
    return Module(f"{name.replace('.', '/')}.py",
                  f"# repro: module[{name}]\n" + textwrap.dedent(source))


def project(*modules: Module) -> Project:
    return Project(list(modules))


# ----------------------------------------------------------------------
# Symbol table and call graph
# ----------------------------------------------------------------------
def test_functions_and_methods_get_distinct_qualnames() -> None:
    prj = project(module("repro.service.one", """
        def helper() -> None:
            pass

        class Server:
            def helper(self) -> None:
                pass
    """))
    assert "repro.service.one.helper" in prj.functions
    assert "repro.service.one.Server.helper" in prj.functions
    info = prj.functions["repro.service.one.Server.helper"]
    assert info.class_qualname == "repro.service.one.Server"
    assert prj.functions["repro.service.one.helper"].class_qualname is None


def test_decorators_are_recorded_in_plain_and_dotted_form() -> None:
    prj = project(module("repro.service.deco", """
        class Engine:
            @mutates_engine_state
            def a(self) -> None:
                pass

            @sanitizer.mutates_engine_state
            def b(self) -> None:
                pass
    """))
    assert prj.functions["repro.service.deco.Engine.a"].decorated_with(
        "mutates_engine_state")
    assert prj.functions["repro.service.deco.Engine.b"].decorated_with(
        "mutates_engine_state")


def test_self_method_calls_resolve_exactly_unknown_receivers_fall_back() -> None:
    prj = project(module("repro.service.calls", """
        class Server:
            def run(self) -> None:
                self.step()
                other.step()

            def step(self) -> None:
                pass
    """))
    sites = {(site.callee_name, site.fallback): site
             for site in prj.sites_in["repro.service.calls.Server.run"]}
    exact = sites[("step", False)]
    assert exact.candidates == ("repro.service.calls.Server.step",)
    fallback = sites[("step", True)]
    assert "repro.service.calls.Server.step" in fallback.candidates


def test_imported_functions_resolve_across_modules() -> None:
    helper = module("repro.storage.helper", """
        def decode_all() -> None:
            pass
    """)
    caller = module("repro.retrieval.caller", """
        from repro.storage.helper import decode_all

        def run() -> None:
            decode_all()
    """)
    prj = project(helper, caller)
    [site] = prj.sites_in["repro.retrieval.caller.run"]
    assert site.candidates == ("repro.storage.helper.decode_all",)
    assert not site.fallback


def test_recursive_locked_chain_terminates_and_flags_the_entry() -> None:
    # _a_locked <-> _b_locked form a call-graph cycle; the requirement
    # still escapes to the lock-free entry point exactly once.
    prj = project(module("repro.service.rec", """
        class Server:
            __guarded_by__ = {"_lock": ("state",)}

            def __init__(self) -> None:
                self.state = 0

            def _a_locked(self) -> None:
                self._b_locked()

            def _b_locked(self) -> None:
                self.state += 1
                self._a_locked()

            def entry(self) -> None:
                self._a_locked()
    """))
    violations = lock_requirement_violations(prj)
    assert [(v.rule, v.site.caller) for v in violations] == [
        ("TRX101", "repro.service.rec.Server.entry")]


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
def _first_function(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    node = tree.body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


def test_may_raise_edges_live_apart_from_normal_successors() -> None:
    func = _first_function("""
        def f() -> None:
            work()
            more()
    """)
    plain = build_cfg(func, exception_edges=False)
    assert all(not node.exc_succ for node in plain.nodes)
    raising = build_cfg(func, exception_edges=True)
    work_node = next(node for node in raising.nodes
                     if node.stmt is not None
                     and isinstance(node.stmt, ast.Expr))
    assert raising.exit_exceptional in work_node.exc_succ
    assert raising.exit_exceptional not in work_node.succ


def test_try_finally_intercepts_both_exits() -> None:
    func = _first_function("""
        def f() -> None:
            acquire()
            try:
                work()
                return
            finally:
                release()
    """)
    cfg = build_cfg(func, exception_edges=True)
    release = next(node for node in cfg.nodes
                   if node.stmt is not None
                   and "release" in ast.dump(node.stmt))
    acquire = next(node for node in cfg.nodes
                   if node.stmt is not None
                   and "acquire" in ast.dump(node.stmt))
    # Neither the normal return nor an exception in work() can reach an
    # exit without passing through the finally body.
    reached = cfg.reachable_without(list(acquire.succ),
                                    lambda node: node is release)
    assert cfg.exit_normal not in reached
    assert cfg.exit_exceptional not in reached


def test_barrier_nodes_do_not_propagate() -> None:
    func = _first_function("""
        def f() -> None:
            first()
            second()
            third()
    """)
    cfg = build_cfg(func)
    first = next(node for node in cfg.nodes
                 if node.stmt is not None and "first" in ast.dump(node.stmt))
    second = next(node for node in cfg.nodes
                  if node.stmt is not None and "second" in ast.dump(node.stmt))
    reached = cfg.reachable_without([first], lambda node: node is second)
    assert cfg.exit_normal not in reached


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def test_telemetry_emission_propagates_through_resolved_calls() -> None:
    prj = project(module("repro.service.emit", """
        class Server:
            def _note(self) -> None:
                self.telemetry.incr("search.requests")

            def outer(self) -> None:
                self._note()

            def silent(self) -> None:
                pass
    """))
    emitters = telemetry_emitters(prj)
    assert "repro.service.emit.Server._note" in emitters
    assert "repro.service.emit.Server.outer" in emitters
    assert "repro.service.emit.Server.silent" not in emitters


def test_uncharged_summary_stops_at_muted_call_sites() -> None:
    prj = project(module("repro.retrieval.costs", """
        def dirty(seq: object) -> list:
            return list(seq.entries())

        def muted_caller(seq: object, cost: object) -> list:
            with cost.muted():
                return dirty(seq)

        def open_caller(seq: object) -> list:
            return dirty(seq)
    """))
    dirty = uncharged_functions(prj)
    assert "repro.retrieval.costs.dirty" in dirty
    assert "repro.retrieval.costs.open_caller" in dirty
    assert "repro.retrieval.costs.muted_caller" not in dirty
