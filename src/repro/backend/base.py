"""The storage-backend protocol and its per-backend cost profiles.

A :class:`StorageBackend` is the datastore behind the block layer: it
persists named blobs (segment images, manifests) inside one index
directory and serves them back whole or as byte ranges.  The catalog
talks *only* to this interface — which file format, how many files, and
what a cold block fetch costs are all backend decisions:

* ``pager`` — the historical layout: one file per blob, byte-for-byte
  compatible with pre-backend ``.blk`` + ``segments.tsv`` directories;
* ``sqlite`` — every blob is a row in one ``catalog.sqlite`` file
  (single-connection, WAL journal);
* ``mmap`` — every blob packed into one ``catalog.mmap`` region with a
  footer directory, served through ranged ``mmap`` reads.

Each backend carries a :class:`CostProfile` describing its physical
access pattern relative to the pager baseline; the block layer scales
its ``BLOCK_READ`` charge by the profile's factor so the simulated cost
of a query reflects where its segments actually live.
"""

from __future__ import annotations

import abc
import errno
import os
from dataclasses import dataclass

from ..errors import StorageError

__all__ = ["CostProfile", "PROFILES", "BACKEND_NAMES", "StorageBackend",
           "make_backend", "detect_backend", "open_backend"]


@dataclass(frozen=True)
class CostProfile:
    """How one backend's physical accesses scale the base charges.

    Factors are multipliers on the pager baseline (``1.0`` everywhere):
    ``block_read_factor`` scales the ``BLOCK_READ`` charge per cold
    block open, ``seek_factor`` scales positioning seeks into the store,
    and ``write_factor`` scales build/save cost — the ``t_build`` the
    advisor reports per backend.
    """

    name: str
    block_read_factor: float
    seek_factor: float
    write_factor: float
    summary: str


#: The folklore ratios: sqlite pays SQL/row-fetch overhead on every
#: block, an mmap fault on a warm OS page cache is cheaper than a
#: buffered read, and both one-file stores amortize open/creat costs at
#: build time differently from the file-per-segment pager.
PROFILES: dict[str, CostProfile] = {
    "pager": CostProfile("pager", 1.0, 1.0, 1.0,
                         "one file per segment; short sequential reads"),
    "sqlite": CostProfile("sqlite", 1.5, 1.25, 1.6,
                          "row fetch per block; B-tree + SQL overhead"),
    "mmap": CostProfile("mmap", 0.75, 0.5, 1.2,
                        "page fault per block; footer directory resident"),
}

#: Every backend name, in the order the CLI and docs present them.
BACKEND_NAMES = ("pager", "sqlite", "mmap")


class StorageBackend(abc.ABC):
    """Named-blob persistence for one index directory.

    The write protocol is staged: ``write`` calls stage blobs, ``sync``
    publishes them atomically (per blob for the pager, whole store for
    the one-file backends), ``close`` releases resources — an unclean
    exit before ``sync`` leaves the previous on-disk state intact.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, directory: str, mode: str = "r") -> None:
        if mode not in ("r", "w"):
            raise StorageError(
                f"bad backend mode {mode!r}; expected 'r' or 'w'")
        self.directory = directory
        self.mode = mode

    @property
    def profile(self) -> CostProfile:
        """This backend's charge-scaling profile."""
        return PROFILES[self.name]

    # -- write side ----------------------------------------------------
    @abc.abstractmethod
    def write(self, blob: str, data: bytes) -> None:
        """Stage *data* under *blob* (published by :meth:`sync`)."""

    @abc.abstractmethod
    def sync(self) -> None:
        """Atomically publish every staged write."""

    # -- read side -----------------------------------------------------
    @abc.abstractmethod
    def read(self, blob: str) -> bytes:
        """The full contents of *blob*."""

    @abc.abstractmethod
    def read_block_bytes(self, blob: str, offset: int, length: int) -> bytes:
        """*length* bytes of *blob* starting at *offset*."""

    @abc.abstractmethod
    def names(self) -> list[str]:
        """Every published blob name, sorted."""

    @abc.abstractmethod
    def length(self, blob: str) -> int:
        """The byte length of *blob*."""

    def exists(self, blob: str) -> bool:
        """Is *blob* published in this store?"""
        return blob in self.names()

    # -- accounting / lifecycle ---------------------------------------
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total on-disk bytes of the published store."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release file handles; abandon unsynced staged writes."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def make_backend(name: str, directory: str,
                 mode: str = "r") -> StorageBackend:
    """Instantiate backend *name* over *directory*.

    ``mode`` is ``"w"`` to start a fresh staged store (save path) or
    ``"r"`` to open a published one (load path).
    """
    from .mmapfile import MmapBackend
    from .pagerdir import PagerBackend
    from .sqlite import SqliteBackend

    classes: dict[str, type[StorageBackend]] = {
        "pager": PagerBackend,
        "sqlite": SqliteBackend,
        "mmap": MmapBackend,
    }
    try:
        cls = classes[name]
    except KeyError:
        raise StorageError(
            f"unknown storage backend {name!r}; "
            f"expected one of {BACKEND_NAMES}") from None
    return cls(directory, mode=mode)


def detect_backend(directory: str) -> str:
    """Which backend's store is published under *directory*?

    A missing directory keeps the historical ``OSError`` contract of the
    load path; :class:`StorageError` means the directory exists but no
    published store lives in it.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(
            errno.ENOENT, "no such index directory", directory)
    if os.path.exists(os.path.join(directory, "catalog.sqlite")):
        return "sqlite"
    if os.path.exists(os.path.join(directory, "catalog.mmap")):
        return "mmap"
    if os.path.exists(os.path.join(directory, "segments.tsv")):
        return "pager"
    raise StorageError(f"{directory}: no storage backend artifacts found")


def open_backend(directory: str) -> StorageBackend:
    """Open the published store under *directory*, whatever its backend."""
    return make_backend(detect_backend(directory), directory, mode="r")
