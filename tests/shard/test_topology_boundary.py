"""Everything above the engines is topology-blind: the advisor, the
autopilot, the serving layer and the CLI see an engine only as its list
of shards (``repro.shard.shards_of``, the one place that looks at the
engine's kind), and there is no second, sharded advisor to import."""

import ast
from pathlib import Path

import pytest

import repro
from repro.build import BuildReport
from repro.corpus import SyntheticIEEECorpus
from repro.errors import MissingIndexError
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine, shards_of

from ..storage.test_import_boundary import imported_modules
from ..warm import warm

ENGINE_KINDS = {"TrexEngine", "ShardedEngine"}
BLIND = ("service", "selfmanage", "cli.py")


def engine_kind_tests(tree: ast.AST):
    """Line numbers of ``isinstance(x, <engine class>)`` and
    ``hasattr(engine, ...)`` calls in *tree*."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == 2):
            continue
        subject, probe = node.args
        if node.func.id == "isinstance":
            classes = probe.elts if isinstance(probe, ast.Tuple) else [probe]
            names = {getattr(item, "id", getattr(item, "attr", None))
                     for item in classes}
            if names & ENGINE_KINDS:
                yield node.lineno
        elif node.func.id == "hasattr" and "engine" in ast.unparse(subject):
            yield node.lineno


def _blind_sources():
    root = Path(repro.__file__).parent
    for entry in BLIND:
        path = root / entry
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def test_no_engine_kind_branches_above_the_engines():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}"
        for path in _blind_sources()
        for line in engine_kind_tests(ast.parse(path.read_text("utf-8")))]
    assert offenders == []


def test_nothing_imports_a_sharded_advisor():
    root = Path(repro.__file__).parent
    assert not (root / "shard" / "advisor.py").exists()
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = ".".join(("repro", *relative.parts[:-1]))
        for module, name in imported_modules(path, package):
            if "repro.shard.advisor" in (module, f"{module}.{name}"):
                offenders.append(f"{relative}: {module} -> {name}")
    assert offenders == []


def test_the_checker_sees_every_spelling():
    probe = ast.parse(
        "isinstance(engine, ShardedEngine)\n"
        "isinstance(self.engine, (int, retrieval.TrexEngine))\n"
        "hasattr(engine, 'shards')\n"
        "hasattr(self.engine, 'shards')\n"
        "isinstance(record, DocumentRecord)\n"
        "hasattr(summary, 'alias')\n")
    assert list(engine_kind_tests(probe)) == [1, 2, 3, 4]


def test_each_shard_write_has_one_body():
    """Compaction is the replica group's, rescoring the coordinator's,
    and ``build_plan`` the only builder; a warm-up returns its report
    at every level instead of leaving it on an attribute."""
    for name in ("compact_segments", "rebuild_scorer", "materialize_rpl",
                 "materialize_erpl", "_materialize"):
        assert not hasattr(TrexEngine, name), name
    engine = TrexEngine(SyntheticIEEECorpus(num_docs=3, seed=5).build())
    sharded = ShardedEngine.from_engine(engine, 1)
    group = sharded.shards[0].group
    reports = [engine.warm_segments([("rpl", "xml")]),
               group.warm_segments([("erpl", "xml")]),
               sharded.warm_segments([("rpl", "retrieval", frozenset(), 0)])]
    assert [type(report) for report in reports] == [BuildReport] * 3
    assert [report.built for report in reports] == [1, 1, 1]
    assert not hasattr(engine, "last_build_report")
    assert not hasattr(sharded, "last_build_report")


def test_evaluation_never_builds():
    """Neither engine class has a knob that lets a query build: a
    forced strategy on an engine that lacks its lists raises
    ``MissingIndexError`` and leaves every catalog's segment ids as
    they were."""
    collection = SyntheticIEEECorpus(num_docs=6, seed=5).build()
    engine = TrexEngine(collection)
    sharded = ShardedEngine(collection, 2)
    for target in (engine, sharded):
        assert not hasattr(target, "auto_materialize")
        warm(target, "//sec[about(., retrieval)]")  # other terms' lists
        ids = [sorted(segment.segment_id
                      for segment in shard.engine.catalog.segments())
               for shard in shards_of(target)]
        for method in ("ta", "merge", "wand"):
            for mode in ("nexi", "flat"):
                with pytest.raises(MissingIndexError):
                    target.evaluate("//sec[about(., information)]", k=5,
                                    method=method, mode=mode)
        assert [sorted(segment.segment_id
                       for segment in shard.engine.catalog.segments())
                for shard in shards_of(target)] == ids
        assert all(ids)
