"""The event loop: a monotonic clock plus a heap of scheduled callbacks.

Each event is one heap entry ``[time, seq, callback, args]``; the unique
``(time, seq)`` prefix orders the heap, so ties fire in scheduling order.
Cancelling clears the entry's callback and leaves it in the heap until it
reaches the front (the "mark removed" pattern of the :mod:`heapq` docs).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.util.errors import SimulationError


class EventLoop:
    """A deterministic discrete-event scheduler.

    Time is in **milliseconds** (matching the library's latency unit).
    Events scheduled at equal times fire in scheduling order, so simulations
    are exactly reproducible.  :attr:`pending` never counts cancelled
    entries, although they stay in the heap until popped.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[list] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._cancelled = 0
        self._cancelled_total = 0
        self._peak_queue = 0

    @property
    def now(self) -> float:
        """Current simulation time in ms."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of *live* events still queued (cancelled ones excluded)."""
        return len(self._queue) - self._cancelled

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def peak_queue_size(self) -> int:
        """Largest raw heap size ever reached (scheduler memory pressure)."""
        return self._peak_queue

    @property
    def cancelled_total(self) -> int:
        """Cancellations over the loop's whole life."""
        return self._cancelled_total

    def schedule(
        self, delay_ms: float, callback: Callable[..., None], *args: Any
    ) -> list:
        """Run ``callback(*args)`` after ``delay_ms``; return the entry to cancel."""
        if not delay_ms >= 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay_ms}")
        entry = [self._now + delay_ms, next(self._sequence), callback, args]
        heapq.heappush(self._queue, entry)
        if len(self._queue) > self._peak_queue:
            self._peak_queue = len(self._queue)
        return entry

    def cancel(self, entry: list) -> None:
        """Keep ``entry`` from firing (no-op once it fired or was cancelled)."""
        if entry[2] is not None:
            entry[2] = None
            self._cancelled += 1
            self._cancelled_total += 1

    def run(self) -> None:
        """Drain the queue: fire every live event in time order.

        The loop takes no bounds: every caller schedules finitely many
        events (the daemon's periodic timers stop at shutdown and a query
        ends at its deadline), so draining is the only way a run ends.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            if entry[0] < self._now:
                raise SimulationError(
                    f"event at t={entry[0]} fired after clock reached {self._now}"
                )
            entry[2] = None
            self._now = entry[0]
            self._processed += 1
            callback(*entry[3])
