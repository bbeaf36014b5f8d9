"""The read path has one API level: the iterators hand out decoded runs
(``next_entries`` / ``codes`` / ``walk``)
and the codec decodes columns; no entry-at-a-time method rides beside
them."""

import ast
from pathlib import Path

import repro

ENTRY_LEVEL = {"next_entry", "next_block", "advance", "next_position",
               "decode_block"}
CLASSES = {
    "retrieval/iterators.py": {"RplIterator", "PostingIterator"},
    "storage/serialization.py": {"BlockCodec"},
}


def test_no_entry_level_methods_on_the_read_path():
    root = Path(repro.__file__).parent
    offenders = []
    for relative, wanted in CLASSES.items():
        tree = ast.parse((root / relative).read_text("utf-8"))
        classes = {node.name: node for node in tree.body
                   if isinstance(node, ast.ClassDef)}
        assert wanted <= set(classes)
        for name in sorted(wanted):
            offenders += [
                f"{relative}: {name}.{item.name}"
                for item in classes[name].body
                if isinstance(item, ast.FunctionDef)
                and item.name in ENTRY_LEVEL]
    assert offenders == []
