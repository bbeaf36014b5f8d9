"""There is one materializer, the paper's: ERA over the Elements and
PostingLists indexes builds every RPL/ERPL entry, an ingest's delta
rows included.  The build path reads no ``Collection``, no source
module turns document trees into entries, and no build fans out over a
process pool."""

import ast
from pathlib import Path

import repro

from ..storage.test_import_boundary import imported_modules

ROOT = Path(repro.__file__).parent
#: Everything between a segment request and its entries.
NO_COLLECTION_READS = ("selfmanage/advisor.py", "selfmanage/measure.py",
                       "service/autopilot.py")
POOL_NAMES = {"workers", "build_workers"}


def _sources():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text("utf-8"))


def collection_reads(tree: ast.AST):
    """Line numbers of ``<anything>.collection`` attribute reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "collection":
            yield node.lineno


def entry_walkers(tree: ast.AST):
    """Names of functions that both call ``.elements()`` (a document
    tree walk) and construct ``RplEntry`` rows."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [call.func for call in ast.walk(node)
                 if isinstance(call, ast.Call)]
        walks = any(isinstance(func, ast.Attribute) and func.attr == "elements"
                    for func in calls)
        builds = any(getattr(func, "id", getattr(func, "attr", None))
                     == "RplEntry" for func in calls)
        if walks and builds:
            yield node.name


def pool_parameters(tree: ast.AST):
    """``(owner, names)`` for every function with a parameter, and every
    class with an annotated field, named like a build-pool width; the
    owner is the enclosing class, else the function itself."""
    def visit(node: ast.AST, owner: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                fields = {stmt.target.id for stmt in child.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)}
                if POOL_NAMES & fields:
                    yield child.name, POOL_NAMES & fields
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs)}
                if POOL_NAMES & names:
                    yield owner or child.name, POOL_NAMES & names
                yield from visit(child, owner)
            else:
                yield from visit(child, owner)
    yield from visit(tree, None)


def test_the_build_package_never_imports_the_document_store():
    offenders = []
    for path in sorted((ROOT / "build").glob("*.py")):
        for module, name in imported_modules(path, "repro.build"):
            if "repro.corpus.collection" in (module, f"{module}.{name}") or (
                    module == "repro.corpus" and name == "Collection"):
                offenders.append(f"{path.name}: {module} -> {name}")
    assert offenders == []


def test_advisor_measurement_and_autopilot_never_read_a_collection():
    offenders = [
        f"{relative}:{line}" for relative, tree in _sources()
        if relative.as_posix() in NO_COLLECTION_READS
        for line in collection_reads(tree)]
    assert offenders == []


def test_no_source_module_walks_documents_into_entries():
    walkers = {(relative.as_posix(), name) for relative, tree in _sources()
               for name in entry_walkers(tree)}
    assert walkers == set()


def test_no_build_fans_out_over_a_process_pool():
    offenders = []
    for relative, tree in _sources():
        package = ".".join(("repro", *relative.parts[:-1]))
        for module, name in imported_modules(ROOT / relative, package):
            if {"multiprocessing", "ProcessPoolExecutor"} & {
                    module.split(".")[0], name}:
                offenders.append(f"{relative}: {module} -> {name}")
        for owner, names in pool_parameters(tree):
            if (relative.parts[0] == "build"
                    or owner in {"TrexEngine", "ShardedEngine", "ReplicaGroup"}):
                offenders.append(f"{relative}: {owner} {sorted(names)}")
            elif owner == "ServiceConfig" and "build_workers" in names:
                # ``ServiceConfig.workers`` is the query executor's.
                offenders.append(f"{relative}: ServiceConfig.build_workers")
    assert offenders == []


def test_the_checkers_see_what_they_claim():
    probe = ast.parse(
        "def walker(document, summary):\n"
        "    return [RplEntry(1.0, 0, 0, n.end_pos, n.length)\n"
        "            for n in document.elements()]\n"
        "def reader(engine):\n"
        "    return engine.collection\n"
        "def fine(engine):\n"
        "    return list(engine.blocked_elements.keys())\n"
        "class Engine:\n"
        "    def warm(self, missing, *, workers=0): ...\n"
        "@dataclass\n"
        "class ServiceConfig:\n"
        "    queue_depth: int = 64\n"
        "    build_workers: int = 0\n")
    assert list(entry_walkers(probe)) == ["walker"]
    assert list(collection_reads(probe)) == [5]
    assert list(pool_parameters(probe)) == [
        ("Engine", {"workers"}), ("ServiceConfig", {"build_workers"})]
