"""Spans taken from outside: wrappers around public callables of
``repro``, installed for a traced pass and removed after it.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces a named attribute on a class (or a function everywhere a
``repro`` module holds it) with a wrapper that records one span per
call — id, parent span, request id, name, thread, start, end — into an
in-memory list.  Spans of one request share the id of their root span;
the hop from an HTTP handler thread to a :class:`BoundedExecutor`
worker carries parent and request across, so a request stays one tree.

Only coarse boundaries are wrapped (at most a few thousand calls per
request).  Hot leaves — ``CostModel`` charges, heap operations — are
counted from the program's own public snapshots and priced by
calibration, never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import Any, NamedTuple

__all__ = ["Span", "Tracer", "TARGETS", "self_times", "children_of"]


class Span(NamedTuple):
    """One timed call.  ``parent`` and ``request`` are span ids (0 = none)."""

    id: int
    parent: int
    request: int
    name: str
    thread: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: ``observe(tracer, args, kwargs, result)`` hooks add counts at the
#: boundary where the work happens.
Observer = Callable[["Tracer", tuple, dict, Any], None]


def _observe_evaluate(tracer: Tracer, args: tuple, kwargs: dict,
                      result: Any) -> None:
    """Per-strategy counts from the public ``ResultSet.stats``."""
    stats = result.stats
    tracer.counts["retrieval.evaluations." + stats.method] += 1
    tracer.counts["retrieval.ta.rows_read"] += sum(stats.list_depths.values())
    tracer.counts["retrieval.ta.rows_total"] += sum(
        stats.list_lengths.values())


def _observe_decode(tracer: Tracer, args: tuple, kwargs: dict,
                    result: Any) -> None:
    tracer.counts["storage.blocks.entries"] += len(result)


def _observe_score(tracer: Tracer, args: tuple, kwargs: dict,
                   result: Any) -> None:
    tracer.counts["scoring.entries"] += len(result)


def _observe_read(tracer: Tracer, args: tuple, kwargs: dict,
                  result: Any) -> None:
    tracer.counts["backend.read_bytes"] += len(result)


def _observe_write(tracer: Tracer, args: tuple, kwargs: dict,
                   result: Any) -> None:
    # StorageBackend.write(self, blob, data)
    tracer.counts["backend.write_bytes"] += len(args[2])


_BACKENDS = ("repro.backend.pagerdir:PagerBackend",
             "repro.backend.sqlite:SqliteBackend",
             "repro.backend.mmapfile:MmapBackend")
_SCORERS = ("repro.scoring.scorers:ElementScorer",
            "repro.scoring.scorers:BM25Scorer",
            "repro.scoring.scorers:LMImpactScorer",
            "repro.scoring.scorers:TfIdfScorer")

#: ``(owner, attribute, span name, kind, observer)``.  *owner* is
#: ``module:Class`` for a method or ``module`` for a function (patched in
#: every ``repro`` module that holds a reference to it).  *kind* is
#: ``span`` or ``submit`` (the executor hop).
TARGETS: tuple[tuple[str, str, str, str, Observer | None], ...] = (
    ("repro.service.server:QueryService", "search", "service.search",
     "span", None),
    ("repro.service.server:QueryService", "ingest", "service.ingest",
     "span", None),
    ("repro.service.server:QueryService", "compact", "service.compact",
     "span", None),
    ("repro.service.cache:ResultCache", "get", "service.cache.get",
     "span", None),
    ("repro.service.executor:BoundedExecutor", "submit",
     "service.executor", "submit", None),
    ("repro.service.locks:ReadWriteLock", "acquire_read",
     "service.locks.acquire_read", "span", None),
    ("repro.service.locks:ReadWriteLock", "acquire_write",
     "service.locks.acquire_write", "span", None),
    ("repro.service.locks:ReadWriteLock", "release_write",
     "service.locks.release_write", "span", None),
    ("repro.nexi.parser", "parse_nexi", "nexi.parse", "span", None),
    ("repro.nexi.translate", "translate_query", "nexi.translate",
     "span", None),
    ("repro.retrieval.engine:TrexEngine", "evaluate_translated",
     "retrieval.engine.evaluate", "span", _observe_evaluate),
    ("repro.retrieval.engine:TrexEngine", "choose_method",
     "retrieval.engine.choose_method", "span", None),
    ("repro.shard.engine:ShardedEngine", "evaluate_translated",
     "shard.evaluate", "span", None),
    ("repro.shard.engine:ShardedEngine", "choose_method",
     "retrieval.engine.choose_method", "span", None),
    ("repro.replica.group:ReplicaGroup", "run_read", "replica.run_read",
     "span", None),
    *((owner, "score_block", "scoring.score_block", "span", _observe_score)
      for owner in _SCORERS),
    ("repro.storage.serialization:BlockCodec", "decode_columns",
     "storage.blocks.decode", "span", _observe_decode),
    ("repro.storage.blocks:BlockSequence", "read_block_columns",
     "storage.blocks.read_block", "span", None),
    ("repro.storage.table:Table", "insert", "storage.table.write",
     "span", None),
    ("repro.storage.table:Table", "delete", "storage.table.write",
     "span", None),
    ("repro.storage.table:Table", "load", "index.tables.load", "span", None),
    ("repro.index.postings", "extend_posting_lists",
     "index.postings.extend", "span", None),
    ("repro.index.postings:BlockedPostings", "rebuild",
     "index.postings.rebuild", "span", None),
    ("repro.index.elements:BlockedElements", "rebuild",
     "index.elements.rebuild", "span", None),
    ("repro.index.catalog:IndexCatalog", "append_delta",
     "index.catalog.append_delta", "span", None),
    ("repro.index.catalog:IndexCatalog", "compact_segment",
     "index.catalog.compact_segment", "span", None),
    ("repro.index.catalog:IndexCatalog", "save", "index.catalog.save",
     "span", None),
    ("repro.index.catalog:IndexCatalog", "load", "index.catalog.load",
     "span", None),
    *((owner, attr, "backend.read", "span", _observe_read)
      for owner in _BACKENDS for attr in ("read", "read_block_bytes")),
    *((owner, "write", "backend.write", "span", _observe_write)
      for owner in _BACKENDS),
    *((owner, "sync", "backend.write", "span", None) for owner in _BACKENDS),
    ("repro.backend.compression", "compress",
     "backend.compression.compress", "span", None),
    ("repro.backend.compression", "decompress",
     "backend.compression.decompress", "span", None),
    ("repro.corpus.xmlparser:XMLParser", "parse", "corpus.parse",
     "span", None),
)


class Tracer:
    """Records spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``(namespace, attribute, original)`` for :meth:`remove`.
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the block as one span (phases the harness marks)."""
        local = self._local
        parent = getattr(local, "current", 0)
        span_id = next(self._ids)
        request = getattr(local, "request", 0) or span_id
        local.current, local.request = span_id, request
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            local.current = parent
            if not parent:
                local.request = 0
            self.spans.append(Span(span_id, parent, request, name,
                                   threading.get_ident(), start, end))

    def _span_wrapper(self, func: Callable, name: str,
                      observe: Observer | None) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = getattr(local, "current", 0)
            span_id = next(ids)
            request = getattr(local, "request", 0) or span_id
            local.current, local.request = span_id, request
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                local.current = parent
                if not parent:
                    local.request = 0
                spans.append(Span(span_id, parent, request, name, ident(),
                                  start, end))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _submit_wrapper(self, func: Callable, name: str) -> Callable:
        """``BoundedExecutor.submit``: carry parent and request onto the
        worker, and record the queue wait and the task as two spans."""
        local, spans, ids = self._local, self.spans, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(func)
        def submit(executor: Any, fn: Callable, /, *args: Any,
                   **kwargs: Any) -> Any:
            parent = getattr(local, "current", 0)
            request = getattr(local, "request", 0)
            submitted = clock()

            @functools.wraps(fn)
            def task(*task_args: Any, **task_kwargs: Any) -> Any:
                started = clock()
                wait_id, task_id = next(ids), next(ids)
                task_request = request or task_id
                spans.append(Span(wait_id, parent, task_request,
                                  name + ".queue_wait", ident(), submitted,
                                  started))
                local.current, local.request = task_id, task_request
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    local.current, local.request = 0, 0
                    spans.append(Span(task_id, parent, task_request,
                                      name + ".task", ident(), started,
                                      clock()))

            return func(executor, task, *args, **kwargs)

        return submit

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------
    def _patch(self, namespace: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def install(self, targets: Iterable[tuple] = TARGETS) -> None:
        """Wrap every target.  A function target is replaced in each
        loaded ``repro`` module that holds it (``from x import f as _f``
        copies the reference, so patching the defining module alone
        would miss those callers)."""
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        for owner, attr, name, kind, observe in targets:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                self._patch(cls, attr, self._make(vars(cls)[attr], name,
                                                  kind, observe))
                continue
            func = vars(module)[attr]
            wrapper = self._make(func, name, kind, observe)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "repro"
                                          or loaded_name.startswith("repro.")):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is func:
                        self._patch(loaded, alias, wrapper)

    def _make(self, func: Callable, name: str, kind: str,
              observe: Observer | None) -> Callable:
        if kind == "span":
            return self._span_wrapper(func, name, observe)
        if kind == "submit":
            return self._submit_wrapper(func, name)
        raise ValueError(f"unknown trace target kind {kind!r}")

    def remove(self) -> None:
        """Put every original back (reverse order; idempotent)."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def installed(self, targets: Iterable[tuple] = TARGETS) -> Iterator[Tracer]:
        self.install(targets)
        try:
            yield self
        finally:
            self.remove()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        """Spans called *name*, in the order they ended."""
        return [span for span in self.spans if span.name == name]

    def dump(self) -> list[dict]:
        """JSON-ready spans, start times relative to the first span."""
        if not self.spans:
            return []
        origin = min(span.start for span in self.spans)
        return [{"id": span.id, "parent": span.parent,
                 "request": span.request, "name": span.name,
                 "thread": span.thread,
                 "start_us": round((span.start - origin) * 1e6, 1),
                 "end_us": round((span.end - origin) * 1e6, 1)}
                for span in self.spans]


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Spans grouped by parent id."""
    grouped: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            grouped[span.parent].append(span)
    return grouped


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its own
    interval that its child spans cover.  Children may overlap each
    other (parallel workers) or run on another thread; the covered part
    is the union of their intervals clipped to the parent."""
    spans = list(spans)
    grouped = children_of(spans)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(grouped.get(span.id, ()),
                            key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = max(span.seconds - covered, 0.0)
    return result
