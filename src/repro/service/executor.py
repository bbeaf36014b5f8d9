"""A bounded thread-pool executor with admission control and deadlines.

The stdlib ``ThreadPoolExecutor`` queues without bound, which under
overload turns into unbounded latency: every accepted request waits
behind everything admitted before it.  A serving system wants the
opposite — *fail fast*.  This executor keeps a fixed worker pool over a
bounded queue and:

* **admission control** — ``submit`` never blocks; when the queue is
  full it raises :class:`ServiceOverloadedError` immediately, so the
  caller (or its load balancer) can retry elsewhere or shed the
  request;
* **per-task deadlines** — a task that waited in the queue past its
  deadline is failed with :class:`DeadlineExceededError` instead of
  being run (running it would waste a worker on an answer nobody is
  waiting for).  Deadlines bound queue wait, not execution: Python
  threads cannot be safely interrupted mid-evaluation;
* **graceful drain** — ``shutdown(wait=True)`` stops admission, lets
  every queued task finish, then joins the workers.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable

from .. import sanitizer
from ..errors import DeadlineExceededError, ServiceClosedError, ServiceOverloadedError

__all__ = ["BoundedExecutor"]


@dataclass
class _Task:
    fn: Callable[..., Any]
    args: tuple[Any, ...]
    kwargs: dict[str, Any]
    future: Future[Any]
    enqueued_at: float
    deadline: float | None  # seconds of allowed queue wait, None = no limit

    def deadline_error(self, now: float) -> DeadlineExceededError | None:
        if self.deadline is None:
            return None
        waited = now - self.enqueued_at
        if waited <= self.deadline:
            return None
        return DeadlineExceededError(waited, self.deadline)


_SENTINEL = object()


class BoundedExecutor:
    """Fixed workers, bounded queue, reject-when-full."""

    __guarded_by__ = {
        "_lock": ("_shutdown", "submitted", "rejected", "expired",
                  "completed"),
    }

    def __init__(self, workers: int = 4, queue_depth: int = 64, *,
                 name: str = "trex-worker") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.max_queue_depth = queue_depth
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=queue_depth)
        self._shutdown = False
        self._lock = sanitizer.make_lock("bounded-executor")
        self.submitted = 0
        self.rejected = 0
        self.expired = 0
        self.completed = 0
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], /, *args: Any,
               deadline: float | None = None, **kwargs: Any) -> Future[Any]:
        """Enqueue ``fn(*args, **kwargs)``; never blocks.

        Raises :class:`ServiceOverloadedError` when the queue is full
        and :class:`ServiceClosedError` after shutdown began.
        *deadline* bounds the seconds the task may wait for a worker.
        """
        future: Future[Any] = Future()
        task = _Task(fn, args, kwargs, future, time.monotonic(), deadline)
        with self._lock:
            if self._shutdown:
                raise ServiceClosedError("executor is shut down")
            try:
                self._queue.put_nowait(task)
            except queue.Full:
                self.rejected += 1
                raise ServiceOverloadedError(self._queue.qsize()) from None
            self.submitted += 1
        return future

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            task = self._queue.get()
            if task is _SENTINEL:
                return
            error = task.deadline_error(time.monotonic())
            if error is not None:
                # Count before failing the future: a caller woken by
                # the error must already see it in ``expired``.
                with self._lock:
                    self.expired += 1
                task.future.set_exception(error)
                continue
            if not task.future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            try:
                result = task.fn(*task.args, **task.kwargs)
            # The worker boundary must forward *everything* to the
            # Future — including ShardTimeoutError — or the caller
            # hangs; nothing is swallowed, so the policy is satisfied.
            # repro: allow[TRX501] worker boundary forwards to Future
            except BaseException as exc:  # noqa: BLE001 — report to the caller
                task.future.set_exception(exc)
            else:
                task.future.set_result(result)
            with self._lock:
                self.completed += 1

    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """How many admitted tasks are waiting for a worker."""
        return self._queue.qsize()

    def shutdown(self, wait: bool = True) -> None:
        """Stop admission; optionally drain the queue and join workers.

        With ``wait=True`` every already-admitted task completes before
        the workers exit (the sentinels sit behind them in FIFO order).
        Idempotent.
        """
        with self._lock:
            if self._shutdown:
                already = True
            else:
                already = False
                self._shutdown = True
        if not already:
            for _ in self._threads:
                self._queue.put(_SENTINEL)
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "BoundedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "workers": self.workers,
                "max_queue_depth": self.max_queue_depth,
                "queue_depth": self._queue.qsize(),
                "submitted": self.submitted,
                "rejected": self.rejected,
                "expired": self.expired,
                "completed": self.completed,
            }
