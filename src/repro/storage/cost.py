"""Deterministic I/O and CPU cost accounting.

The paper reports wall-clock seconds measured on a 2.4 GHz Opteron with
BerkeleyDB tables.  A reproduction on different hardware cannot (and
should not) match those absolute numbers, so this module provides the
substitute described in DESIGN.md: every physically meaningful event —
page reads, seeks, tuple decodes, heap operations, comparisons, sort
steps — is charged to a :class:`CostModel`.  The "evaluation time" that
the benchmark harness reports is the accumulated simulated cost, which
is deterministic and hardware independent, while preserving the relative
behaviour the paper's figures are about (who wins, by what factor, and
where the crossovers in ``k`` fall).

The charge constants are expressed in abstract *cost units*.  Their
ratios encode the usual storage-engine folklore: a random seek is an
order of magnitude more expensive than reading the next page of a
sequential scan, which is itself an order of magnitude more expensive
than decoding one tuple from an already-resident page, and in-memory
comparisons are cheaper still.

Crucially for the paper's TA-versus-ITA ablation, heap charges are kept
on a *separate meter* so that an "ideal heap" evaluation (the paper's
ITA, which pauses the clock during heap maintenance) can be reported by
simply excluding the heap meter from the total.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .. import sanitizer


class Charge:
    """Default charge constants, in abstract cost units."""

    #: Positioning a cursor with a B+-tree descent (a random I/O).
    SEEK = 40.0
    #: Reading a page that was not in the cache (sequential-ish I/O).
    PAGE_READ = 8.0
    #: Touching a page that was already cached.
    PAGE_HIT = 0.25
    #: Decoding one tuple from a resident page.
    TUPLE_READ = 1.0
    #: Writing one tuple (index construction).
    TUPLE_WRITE = 1.5
    #: One key comparison during merging/scanning.
    COMPARE = 0.05
    #: Per element-moved unit of a sort (multiplied by n log2 n).
    SORT_STEP = 0.12
    #: Per level of a heap sift during insert/remove.
    HEAP_STEP = 1.6
    #: Evaluating the score-combination function once.
    SCORE_COMBINE = 0.2
    #: Fetching one compressed block that was not cached (a short
    #: sequential read; cheaper than a cold B+-tree page because blocks
    #: are packed back to back).
    BLOCK_READ = 6.0
    #: Fixed cost of decompressing one block (header checks, buffer setup).
    BLOCK_DECODE = 1.0
    #: Amortized per-entry cost of delta+varint decoding within a block —
    #: over an order of magnitude below TUPLE_READ, which is the whole
    #: point of batched decoding.
    ENTRY_DECODE = 0.05
    #: Inflating one zlib-compressed block before it can be decoded.
    #: Paid only by segments stored compressed — the explicit CPU side
    #: of the smaller-``size_bytes`` trade the advisor weighs.
    BLOCK_DECOMPRESS = 2.0


@dataclass
class CostCounters:
    """Raw event counters: the integers every cost is priced from, and
    what tests, benches and telemetry assert on."""

    seeks: int = 0
    page_reads: int = 0
    page_hits: int = 0
    tuples_read: int = 0
    tuples_written: int = 0
    comparisons: int = 0
    heap_inserts: int = 0
    heap_removes: int = 0
    sort_elements: int = 0
    score_combines: int = 0
    blocks_read: int = 0
    blocks_decoded: int = 0
    blocks_skipped: int = 0
    entries_decoded: int = 0
    blocks_decompressed: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass(frozen=True)
class CostSnapshot:
    """The meters at one instant — or, from :meth:`CostModel.since`,
    over one interval.  Cost is priced on reading, as a pure function of
    the integer counters plus the three float side-meters."""

    charge: type[Charge]
    counters: CostCounters
    #: Σ factor × count over ``block_read`` calls (exact for the dyadic
    #: factors the backend profiles use).
    read_units: float = 0.0
    #: Σ n·log₂n over ``sort`` calls, in call order.
    sort_work: float = 0.0
    #: Σ log₂(size + 2) over ``heap_remove`` calls, in call order.
    heap_levels: float = 0.0

    @property
    def base_cost(self) -> float:
        unit, c = self.charge, self.counters
        return (unit.SEEK * c.seeks
                + unit.PAGE_READ * c.page_reads
                + unit.PAGE_HIT * c.page_hits
                + unit.TUPLE_READ * c.tuples_read
                + unit.TUPLE_WRITE * c.tuples_written
                + unit.COMPARE * c.comparisons
                + unit.SCORE_COMBINE * c.score_combines
                + unit.BLOCK_READ * self.read_units
                + unit.BLOCK_DECOMPRESS * c.blocks_decompressed
                + unit.BLOCK_DECODE * c.blocks_decoded
                + unit.ENTRY_DECODE * c.entries_decoded
                + unit.SORT_STEP * self.sort_work)

    @property
    def heap_cost(self) -> float:
        c = self.counters
        return self.charge.HEAP_STEP * (c.heap_inserts + c.heap_removes
                                        + self.heap_levels)

    @property
    def total_cost(self) -> float:
        """Simulated cost including heap maintenance (paper: TA)."""
        return self.base_cost + self.heap_cost

    @property
    def ideal_cost(self) -> float:
        """Simulated cost with heap maintenance suppressed (paper: ITA)."""
        return self.base_cost

    # The block-level counters travel into ``EvaluationStats`` by name.
    @property
    def blocks_read(self) -> int:
        return self.counters.blocks_read

    @property
    def blocks_decoded(self) -> int:
        return self.counters.blocks_decoded

    @property
    def blocks_skipped(self) -> int:
        return self.counters.blocks_skipped

    @property
    def entries_decoded(self) -> int:
        return self.counters.entries_decoded

    @property
    def blocks_decompressed(self) -> int:
        return self.counters.blocks_decompressed


class CostModel:
    """Accumulates simulated cost for one evaluation context.

    Charging only *counts*: linear charges bump an integer counter, and
    the two non-linear ones (``sort``, ``heap_remove``) add their log
    term to a float side-meter.  Prices are applied when a meter is read,
    in one fixed order, so a cost never depends on the order or the
    granularity in which its charges arrived — callers may tally events
    in locals and charge them in bulk, provided they flush before any
    meter is read.  :attr:`base_cost` covers every non-heap charge and
    :attr:`heap_cost` heap maintenance; ``total_cost`` is their sum (what
    the paper calls TA time) and ``ideal_cost`` excludes the heap meter
    (the paper's ITA).

    **Thread-scoped routing.**  Storage components (block sequences,
    page caches) capture a reference to one cost model at construction,
    which is wrong the moment two threads evaluate concurrently: their
    charges would interleave on shared meters, and one thread's
    ``muted()`` block would silently swallow another's charges.  The
    :meth:`scoped` context manager fixes this without rewiring any
    component: it routes *this* model's charges, for the current thread
    only, to a private per-worker model.  Evaluation loops call
    :meth:`resolve` once and charge the model it returns directly; a
    model with no scope open on any thread never looks at the
    thread-local at all.
    """

    __guarded_by__ = {"_scope_lock": ("_scopes",)}

    def __init__(self, charge: type[Charge] = Charge) -> None:
        self.charge = charge
        self.counters = CostCounters()
        self._read_units = 0.0
        self._sort_work = 0.0
        self._heap_levels = 0.0
        self._muted = False
        #: ``scoped()`` blocks open on any thread.
        self._scopes = 0
        self._scope_lock = sanitizer.make_lock("cost-model-scopes")
        self._scoped = threading.local()

    # ------------------------------------------------------------------
    # Thread-scoped delegation
    # ------------------------------------------------------------------
    def resolve(self) -> "CostModel":
        """The model charges on this thread land on."""
        if not self._scopes:
            return self
        model = getattr(self._scoped, "model", None)
        return self if model is None else model.resolve()

    @contextmanager
    def scoped(self, model: "CostModel") -> Iterator["CostModel"]:
        """Route this model's traffic on the current thread to *model*.

        Every charging primitive, ``muted()`` block and meter read that
        the current thread performs through ``self`` while inside the
        block is served by *model* instead.  Other threads are
        unaffected.  Scopes nest; the previous routing is restored on
        exit.
        """
        previous = getattr(self._scoped, "model", None)
        self._scoped.model = model if model is not self else None
        with self._scope_lock:
            self._scopes += 1
        try:
            yield model
        finally:
            with self._scope_lock:
                self._scopes -= 1
            self._scoped.model = previous

    # ------------------------------------------------------------------
    # Muting (index construction is not part of query evaluation time)
    # ------------------------------------------------------------------
    @contextmanager
    def muted(self) -> Iterator["CostModel"]:
        """Suspend all charging within the block (nested blocks fine)."""
        model = self.resolve()
        previous = model._muted
        model._muted = True
        try:
            yield model
        finally:
            model._muted = previous

    # ------------------------------------------------------------------
    # Charging primitives (the ``_scopes`` test is inlined so that an
    # unscoped model — every strategy loop's — pays no routing call)
    # ------------------------------------------------------------------
    def seek(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.seeks += count

    def page_read(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.page_reads += count

    def page_hit(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.page_hits += count

    def tuple_read(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.tuples_read += count

    def tuple_write(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.tuples_written += count

    def compare(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.comparisons += count

    def score_combine(self, count: int = 1) -> None:
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.score_combines += count

    def block_read(self, count: int = 1, factor: float = 1.0) -> None:
        """Charge fetching *count* compressed blocks from storage.

        ``factor`` scales the charge for the active storage backend's
        access pattern (a sqlite row fetch pays SQL overhead, an mmap
        fault is cheaper than a buffered read).  It multiplies the
        configured ``BLOCK_READ`` constant, so a free cost model stays
        free under every backend.
        """
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.blocks_read += count
            model._read_units += factor * count

    def block_decompress(self, count: int = 1) -> None:
        """Charge inflating *count* compressed blocks before decode."""
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.blocks_decompressed += count

    def block_decode(self, entries: int) -> None:
        """Charge decompressing one block holding *entries* entries."""
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.blocks_decoded += 1
            model.counters.entries_decoded += entries

    def block_skip(self, count: int = 1) -> None:
        """Record *count* blocks pruned via their resident headers.

        Skipping is the free path — the skip directory is in memory, so
        no cost accrues; the counter makes the §3.3 skip economics
        observable in telemetry.
        """
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.blocks_skipped += count

    def sort(self, n: int) -> None:
        """Charge an ``n log n`` comparison sort of *n* elements."""
        model = self.resolve() if self._scopes else self
        if not model._muted and n > 1:
            model.counters.sort_elements += n
            model._sort_work += n * math.log2(n)

    def heap_insert(self, count: int = 1) -> None:
        """Charge *count* heap inserts (amortized O(1) each: sift-up on
        random input touches a constant number of levels in expectation)."""
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.heap_inserts += count

    def heap_remove(self, heap_size: int) -> None:
        """Charge one heap removal when the heap holds *heap_size* live
        entries (sift-down is a true O(log size) walk)."""
        model = self.resolve() if self._scopes else self
        if not model._muted:
            model.counters.heap_removes += 1
            model._heap_levels += math.log2(heap_size + 2)

    # ------------------------------------------------------------------
    # Reading the meters
    # ------------------------------------------------------------------
    def _meters(self) -> "CostSnapshot":
        """This model's own meters, whatever the thread's routing."""
        return CostSnapshot(self.charge, CostCounters(**vars(self.counters)),
                            self._read_units, self._sort_work,
                            self._heap_levels)

    def snapshot(self) -> "CostSnapshot":
        """Capture the current meters, for differential measurements."""
        return self.resolve()._meters()

    def since(self, snap: "CostSnapshot") -> "CostSnapshot":
        """The counts — hence the cost — accumulated since *snap*."""
        now = self.resolve()
        then = vars(snap.counters)
        spent = CostCounters(**{name: value - then[name] for name, value
                                in vars(now.counters).items()})
        return CostSnapshot(now.charge, spent,
                            now._read_units - snap.read_units,
                            now._sort_work - snap.sort_work,
                            now._heap_levels - snap.heap_levels)

    @property
    def base_cost(self) -> float:
        """Every non-heap charge on this model's own meters."""
        return self._meters().base_cost

    @property
    def heap_cost(self) -> float:
        """Heap maintenance on this model's own meters."""
        return self._meters().heap_cost

    @property
    def total_cost(self) -> float:
        """Simulated cost including heap maintenance (paper: TA)."""
        return self.snapshot().total_cost

    @property
    def ideal_cost(self) -> float:
        """Simulated cost with heap maintenance suppressed (paper: ITA)."""
        return self.snapshot().ideal_cost

    def reset(self) -> None:
        model = self.resolve()
        model.counters = CostCounters()
        model._read_units = model._sort_work = model._heap_levels = 0.0


#: A process-wide cost model used when callers do not supply their own.
GLOBAL_COST_MODEL = CostModel()


def free_cost_model() -> CostModel:
    """Return a cost model whose charges are all zero.

    Index construction and other setup work is routed through one of
    these so that only query evaluation is metered.
    """

    class _FreeCharge(Charge):
        SEEK = 0.0
        PAGE_READ = 0.0
        PAGE_HIT = 0.0
        TUPLE_READ = 0.0
        TUPLE_WRITE = 0.0
        COMPARE = 0.0
        SORT_STEP = 0.0
        HEAP_STEP = 0.0
        SCORE_COMBINE = 0.0
        BLOCK_READ = 0.0
        BLOCK_DECODE = 0.0
        ENTRY_DECODE = 0.0
        BLOCK_DECOMPRESS = 0.0

    return CostModel(charge=_FreeCharge)
