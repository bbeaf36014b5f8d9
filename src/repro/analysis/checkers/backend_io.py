"""TRX205 — index-store I/O goes through ``repro.backend``.

The storage-backend subsystem owns every byte that reaches an index
store: atomic staged writes, corruption wrapping, codec tags and cost
charging all live behind :class:`~repro.backend.base.StorageBackend`.
A direct ``open()`` or ``sqlite3.connect()`` on an index artifact —
a ``.blk`` / ``.sqlite`` / ``.mmap`` file or a ``segments.tsv``
manifest — bypasses all four, so saved catalogs stop being
byte-interchangeable across backends and crash-atomicity silently
disappears.

TRX205 flags such calls outside ``repro.backend`` itself.  The rule is
textual by necessity (it looks for index-artifact markers in the call's
literal arguments and in nearby f-string pieces), so path-building
helpers that merely *name* an index file stay clean; only handing the
name to ``open``/``sqlite3.connect``/``mmap.mmap`` trips it.  Corpus
and run files (``.xml``, workload TSVs) are out of scope.
A deliberate exception carries ``# repro: allow[TRX205]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Module, Rule
from . import attr_chain

__all__ = ["BackendIoChecker"]

#: Substrings that mark a string literal as an index-store artifact.
_INDEX_MARKERS = (".blk", "catalog.sqlite", "catalog.mmap", "segments.tsv")

#: Call targets that reach the filesystem / database layer directly.
_IO_CALLS = (
    ["open"],
    ["io", "open"],
    ["os", "open"],
    ["sqlite3", "connect"],
    ["mmap", "mmap"],
)

#: Packages allowed to touch stores directly: the backend subsystem is
#: the abstraction itself.
_EXEMPT = ("repro.backend",)


def _literal_strings(node: ast.expr) -> Iterator[str]:
    """Every string literal reachable inside one call argument."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


class BackendIoChecker:
    name = "backend_io"
    rules = (
        Rule("TRX205", "direct open()/sqlite3.connect()/mmap on index-store "
                       "paths outside repro.backend"),
    )

    def check(self, module: Module, project: object) -> Iterator[Finding]:
        if not module.in_package("repro") or module.in_package(*_EXEMPT):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain not in _IO_CALLS:
                continue
            marker = self._index_marker(node)
            if marker is None:
                continue
            target = ".".join(chain)
            yield Finding(
                "TRX205", module.path, node.lineno, node.col_offset + 1,
                f"{target}() on an index-store path ({marker!r}); store "
                f"access must go through repro.backend (make_backend/"
                f"open_backend) so staged writes, corruption wrapping and "
                f"codec tags apply")

    def _index_marker(self, call: ast.Call) -> str | None:
        """The index-artifact marker named in the call's arguments."""
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for argument in arguments:
            for text in _literal_strings(argument):
                for marker in _INDEX_MARKERS:
                    if marker in text:
                        return marker
        return None
