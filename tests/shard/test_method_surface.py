"""The strategy surface has one owner: ``repro.retrieval.engine``
declares ``METHOD_KINDS`` / ``METHODS`` / ``check_request`` and every
other layer (both engines, the service, the HTTP handler, the CLI) reads
them.  ``race`` and ``ita`` are not methods any more, and the package
exports nothing whose defining file is gone."""

import ast
import functools
import importlib
import subprocess
import sys
from pathlib import Path

import repro
from repro.retrieval.engine import METHOD_KINDS, METHODS

ROOT = Path(repro.__file__).parent
OWNER = Path("retrieval") / "engine.py"
#: ``repro.bench`` labels the series of Figs. 4–6 by strategy (``ita``
#: among them, read from ``stats.ideal_cost``); the package is benchmark
#: support that ROADMAP item 10(b) moves out of ``src``.
SERIES_LABELS = Path("bench") / "runner.py"
RETIRED = {"race", "ita"}


@functools.cache
def _sources():
    return [(path.relative_to(ROOT), ast.parse(path.read_text("utf-8")))
            for path in sorted(ROOT.rglob("*.py"))]


def strategy_enumerations(tree: ast.AST):
    """Line numbers of dict / tuple / list / set literals that name at
    least three strategies — a second copy of the method table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            items = node.keys
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        else:
            continue
        names = {item.value for item in items
                 if isinstance(item, ast.Constant)}
        if len(names & set(METHOD_KINDS)) >= 3:
            yield node.lineno


def retired_method_tests(tree: ast.AST):
    """Line numbers of comparisons of a name (or attribute) called
    ``method`` with ``"race"`` / ``"ita"``, directly or in a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        subjects = {getattr(item, "id", getattr(item, "attr", None))
                    for item in operands}
        constants = {leaf.value for item in operands
                     for leaf in ast.walk(item)
                     if isinstance(leaf, ast.Constant)}
        if "method" in subjects and constants & RETIRED:
            yield node.lineno


def test_one_method_table():
    found = [f"{path}:{line}" for path, tree in _sources()
             if path != SERIES_LABELS
             for line in strategy_enumerations(tree)]
    assert len(found) == 1 and found[0].startswith(f"{OWNER}:"), found
    assert METHODS == (*METHOD_KINDS, "auto")
    assert not RETIRED & set(METHODS)


def test_nothing_branches_on_a_retired_method():
    assert [f"{path}:{line}" for path, tree in _sources()
            for line in retired_method_tests(tree)] == []


def test_the_checkers_see_every_spelling():
    probe = ast.parse(
        'KINDS = {"ta": 1, "merge": 2, "wand": 3}\n'
        'if method in ("era", "ta", "merge"): pass\n'
        'if method in ("ta", "wand"): pass\n'
        'if method == "race": pass\n'
        'if self.method in ("ta", "ita"): pass\n'
        'x = "ita" if method == "ita" else method\n'
        'if series == "ita": pass\n')
    assert list(strategy_enumerations(probe)) == [1, 2]
    assert list(retired_method_tests(probe)) == [4, 5, 6]


def test_exports_resolve_and_retired_files_are_gone():
    for package in ("repro", "repro.retrieval"):
        module = importlib.import_module(package)
        assert [name for name in module.__all__
                if not hasattr(module, name)] == []
    for gone in ("retrieval/race.py", "retrieval/ta_ra.py",
                 "retrieval/snippets.py", "evaluation"):
        assert not (ROOT / gone).exists(), gone


def test_importing_repro_does_not_load_an_evaluation_package():
    subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; assert 'repro.evaluation' not in sys.modules"],
        check=True, env={"PYTHONPATH": str(ROOT.parent)})
