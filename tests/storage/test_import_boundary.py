"""The B+-tree row store is a standalone substrate: nothing outside
``repro.storage`` may import it (engines, iterators and the save format
run on block sequences only)."""

import ast
from pathlib import Path

import repro

ROW_STORE = {"repro.storage.table", "repro.storage.btree"}
#: What ``repro.storage`` re-exports from those two modules.
ROW_STORE_NAMES = {"Table", "Column", "Schema", "column_codec",
                   "BPlusTree", "Cursor"}


def imported_modules(path: Path, package: str):
    """``(module, name)`` pairs for every import statement in *path*."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[:len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            for alias in node.names:
                yield module, alias.name


def test_nothing_outside_storage_imports_the_row_store():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] == "storage":
            continue
        package = ".".join(("repro", *relative.parts[:-1]))
        for module, name in imported_modules(path, package):
            if (module in ROW_STORE
                    or f"{module}.{name}" in ROW_STORE
                    or (module == "repro.storage" and name in ROW_STORE_NAMES)):
                offenders.append(f"{relative}: {module} -> {name}")
    assert offenders == []


def test_the_checker_sees_relative_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ..storage.table import Table\n"
                     "from ..storage import btree\n")
    assert set(imported_modules(probe, "repro.index")) == {
        ("repro.storage.table", "Table"), ("repro.storage", "btree")}
