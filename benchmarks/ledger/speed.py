"""Times at reference speed: the shared box's mood taken out of a run.

The box the ledger runs on gives a CPU-bound thread anything between
its full speed and a little over half of it, in episodes of a fraction
of a second to minutes (README, "Steadiness").  A run therefore carries
its own speedometer: a fixed slice of interpreter work shaped like the
engine's inner loops (method calls that bump counters, dict and list
look-ups, a small heap).  A thread that computes runs it between the
operations it times, never inside one; beside a thread that waits for a
server it runs on a thread of its own.  The mean slice against
``REFERENCE_SLICE_S`` is the
run's *speed factor* — 1.0 on the undisturbed box, 1.5 when everything
CPU-bound takes half as long again — and every reported time has its
on-CPU share divided by that factor:

    at reference speed = wall - cpu + cpu / factor

Waiting that no CPU does (the 40 ms delayed-ACK stall of every
``/search`` reply, fsync) is left as measured.  The probe lives here, in
the benchmark's own files, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import contextmanager

#: Interpreter steps in one slice (about a millisecond).
SLICE_STEPS = 1200
#: One slice on the undisturbed 2-core box the ledger was defined on.
REFERENCE_SLICE_S = 0.001
#: A slice longer than this many median slices was descheduled, not
#: slowed (the hypervisor parks a vCPU for up to 0.3 s now and then); it
#: counts as this many medians.
STALL_CLIP = 4.0
#: At most this many slices per ``catch_up`` call, so a long operation
#: is not followed by one long burst that samples a single moment.
BURST = 12
#: After a wait (a reply, a poll, a sleep) the core comes back cold and
#: the first slice runs up to twice as long whatever the box's mood; it
#: is run and thrown away, and this many are kept.
SLICES_AFTER_WAIT = 2
#: Seconds the background probe sleeps between its turns (about a tenth
#: of the time goes to slices).
BACKGROUND_PERIOD = 0.04
#: A stretch of a run gets a speed factor of its own when at least this
#: many slices fell inside it; a shorter one shares the whole run's.
MIN_LOCAL_SLICES = 8

#: Entries in the probe's table and array: past the first-level cache,
#: well inside the second, so that a neighbour churning memory slows the
#: probe about as little as it slows an evaluation.
_SIZE = 4096
_TABLE = {index: (index * 7919) % 1000 for index in range(_SIZE)}
_ARRAY = list(range(_SIZE))


class _Meter:
    """Stands in for ``CostModel``: a call that bumps two counters."""

    __slots__ = ("count", "cost")

    def __init__(self) -> None:
        self.count = 0
        self.cost = 0.0

    def charge(self, count: int = 1) -> None:
        self.count += count
        self.cost += count * 1.5


def probe_slice() -> float:
    """CPU seconds one fixed slice of engine-shaped interpreter work
    took.  The thread's CPU clock, not the wall's: a slow box shows in
    both, a slice that had to queue for a core behind the server it runs
    beside only in the latter."""
    meter = _Meter()
    heap: list[tuple[int, int]] = []
    table, array = _TABLE, _ARRAY
    push, pop = heapq.heappush, heapq.heappop
    total = 0
    started = time.thread_time()
    for step in range(SLICE_STEPS):
        slot = (step * 7919) % _SIZE
        meter.charge()
        total += table[slot]
        total += array[(slot * 31) % _SIZE]
        push(heap, (total % 97, step))
        meter.charge(2)
        if len(heap) > 16:
            pop(heap)
    return time.thread_time() - started


def speed_factor(slices: list[float]) -> float:
    """Mean slice (stalls clipped) over the reference slice.  The mean,
    not the median: the times it corrects are sums over the same
    episodes."""
    if not slices:
        raise ValueError("no probe slice was run")
    cap = STALL_CLIP * statistics.median(slices)
    return (statistics.fmean(min(value, cap) for value in slices)
            / REFERENCE_SLICE_S)


def at_reference_speed(wall: float, cpu: float, factor: float) -> float:
    """*wall* seconds with their on-CPU share *cpu* rescaled."""
    cpu = min(max(cpu, 0.0), wall)
    return wall - cpu + cpu / factor


class SpeedMeter:
    """Keeps the probe at a fixed share of the time since it was made.

    Call :meth:`catch_up` between timed operations of a busy thread; it
    runs slices until the probe has had its share.  A thread that waits
    for replies calls :meth:`after_wait` instead.  ``mark`` and
    ``factor(since)`` give the speed factor of one stretch of a run."""

    def __init__(self, share: float = 0.0) -> None:
        self.share = share
        self.slices: list[float] = []
        #: ``perf_counter`` when each slice began.
        self.stamps: list[float] = []
        #: Seconds spent in slices (harness time, never a program's).
        self.seconds = 0.0
        self._started = time.perf_counter()

    def sample(self) -> None:
        started = time.perf_counter()
        self.stamps.append(started)
        self.slices.append(probe_slice())
        self.seconds += time.perf_counter() - started

    def catch_up(self) -> None:
        for _ in range(BURST):
            elapsed = time.perf_counter() - self._started
            if self.seconds >= self.share * elapsed:
                return
            self.sample()

    def after_wait(self) -> None:
        """The probe's turn for a thread that has just been woken: the
        same few slices every time, not a share of the time waited."""
        started = time.perf_counter()
        probe_slice()
        self.seconds += time.perf_counter() - started
        for _ in range(SLICES_AFTER_WAIT):
            self.sample()

    @contextmanager
    def in_background(self) -> Iterator[None]:
        """Probe from a thread of its own while the caller's threads
        wait for another process: a turn every ``BACKGROUND_PERIOD``,
        so the box is sampled evenly in time — also while a reader is
        stalled, which is when its speed matters most."""
        stop = threading.Event()

        def turns() -> None:
            self.after_wait()
            while not stop.wait(BACKGROUND_PERIOD):
                self.after_wait()

        thread = threading.Thread(target=turns, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor_between(self, start: float, end: float) -> float:
        """The speed factor of ``perf_counter`` interval [start, end]:
        its own when enough slices began inside it, the run's if not."""
        low = bisect_left(self.stamps, start)
        high = bisect_right(self.stamps, end)
        if high - low >= MIN_LOCAL_SLICES:
            return speed_factor(self.slices[low:high])
        return self.factor()

    def mark(self) -> int:
        return len(self.slices)

    def factor(self, since: int = 0) -> float:
        return speed_factor(self.slices[since:])


def process_cpu_seconds(pid: int) -> float:
    """CPU seconds process *pid* has used so far, all its threads, ended
    ones included, to the nanosecond: its POSIX CPU-time clock (what
    ``clock_getcpuclockid(3)`` returns for *pid*)."""
    return time.clock_gettime(((~pid) << 3) | 2)
