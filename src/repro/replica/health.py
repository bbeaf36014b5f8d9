"""Per-replica health tracking with half-open probe recovery.

Each replica carries a tiny three-state machine:

* ``up`` — serving reads normally;
* ``down`` — marked unhealthy after ``failure_threshold`` consecutive
  faults (or one deadline-based marking); excluded from selection;
* ``probing`` — the half-open state: once ``probe_interval`` seconds
  have passed since the replica went down, exactly **one** read is
  admitted as a probe.  Success promotes the replica back to ``up``;
  failure re-opens the breaker and restarts the interval, and so does a
  probe read released without a verdict.

The state machine is driven by :class:`~repro.replica.group.
ReplicaGroup` under the group's state lock, so it needs no locking of
its own.  The clock is injectable so tests can step time explicitly.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["ReplicaHealth", "UP", "DOWN", "PROBING"]

UP = "up"
DOWN = "down"
PROBING = "probing"


class ReplicaHealth:
    """Consecutive-failure marking with a half-open probe breaker."""

    def __init__(self, *, failure_threshold: int = 2,
                 probe_interval: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self._clock = clock
        self.state = UP
        self.consecutive_failures = 0
        self.down_since = 0.0
        # Cumulative counters, surfaced in /replicas rows.
        self.failures = 0
        self.probes = 0
        self.recoveries = 0

    # -- selection ------------------------------------------------------
    def admit(self) -> bool:
        """May a read be routed to this replica right now?

        A ``down`` replica whose probe interval has elapsed transitions
        to ``probing`` and admits exactly one read (the probe); while
        that probe is outstanding no further reads are admitted.
        """
        if self.state == UP:
            return True
        if self.state == PROBING:
            return False
        if self._clock() - self.down_since >= self.probe_interval:
            self.state = PROBING
            self.probes += 1
            return True
        return False

    # -- outcomes -------------------------------------------------------
    def record_success(self) -> None:
        if self.state == PROBING:
            self.recoveries += 1
        self.state = UP
        self.consecutive_failures = 0

    def record_release(self) -> None:
        """A read ended without a verdict (the query failed, not
        necessarily the replica).  An outstanding probe must not stay
        outstanding — ``admit`` refuses every read while ``probing`` —
        so the breaker re-opens and the next probe is admitted after
        another ``probe_interval``."""
        if self.state == PROBING:
            self.state = DOWN
            self.down_since = self._clock()

    def record_failure(self, *, mark_now: bool = False) -> None:
        """Count one fault; trip the breaker at the threshold.

        ``mark_now`` forces the transition regardless of the count —
        the deadline-based marking path (a read blew its response
        deadline) uses it, as does a probe failure.
        """
        self.failures += 1
        self.consecutive_failures += 1
        tripped = (mark_now or self.state == PROBING
                   or self.consecutive_failures >= self.failure_threshold)
        if tripped:
            self.state = DOWN
            self.down_since = self._clock()

    def snapshot(self) -> dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "probes": self.probes,
            "recoveries": self.recoveries,
        }
