"""The event loop: a monotonic clock plus a heap of scheduled callbacks."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util.errors import SimulationError


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    fired: bool = field(compare=False, default=False)


class EventHandle:
    """Returned by :meth:`EventLoop.schedule`; allows cancellation."""

    def __init__(self, event: _Event, loop: "EventLoop") -> None:
        self._event = event
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        event = self._event
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._loop._note_cancel()

    @property
    def time(self) -> float:
        """Scheduled firing time (ms)."""
        return self._event.time

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return not (self._event.cancelled or self._event.fired)


#: Lazy-compaction trigger: the heap is rebuilt without its cancelled
#: entries once at least this many cancellations are buried in it *and*
#: they make up at least half of the queue.  The absolute floor keeps tiny
#: queues from paying an O(n) rebuild per cancellation; the fraction keeps
#: the amortised cost O(1) per cancelled event on large queues.
_COMPACT_MIN_CANCELLED = 64


class EventLoop:
    """A deterministic discrete-event scheduler.

    Time is in **milliseconds** (matching the library's latency unit).
    Events scheduled at equal times fire in scheduling order, so simulations
    are exactly reproducible.

    Cancelled events are dropped lazily: they stay in the heap (marked
    dead) until they either reach the front or a compaction pass rebuilds
    the heap without them.  :attr:`pending` is exact either way — it never
    counts cancelled entries.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[_Event] = []
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
    def queue_size(self) -> int:
        """Raw heap size, cancelled entries included (compaction diagnostic)."""
        return len(self._queue)

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
        """Cancellations over the loop's whole life (compaction workload).

        Unlike the live ``_cancelled`` tally — which compaction and pops
        drain back toward zero — this only grows, so it is the number a
        run report can surface.
        """
        return self._cancelled_total

    def schedule(
        self, delay_ms: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay_ms`` of simulated time."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay_ms}")
        event = _Event(
            time=self._now + delay_ms,
            sequence=next(self._sequence),
            callback=callback,
            args=args,
        )
        heapq.heappush(self._queue, event)
        if len(self._queue) > self._peak_queue:
            self._peak_queue = len(self._queue)
        return EventHandle(event, self)

    def _note_cancel(self) -> None:
        """Account one cancellation; compact the heap past the threshold."""
        self._cancelled += 1
        self._cancelled_total += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and 2 * self._cancelled >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap order among survivors is fully determined by the unique
        ``(time, sequence)`` keys, so compaction cannot perturb firing
        order.
        """
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _pop_and_run(self) -> bool:
        """Pop the next event; return True iff it actually executed."""
        event = heapq.heappop(self._queue)
        if event.cancelled:
            self._cancelled -= 1
            return False
        if event.time < self._now:
            raise SimulationError(
                f"event at t={event.time} fired after clock reached {self._now}"
            )
        self._now = event.time
        self._processed += 1
        event.fired = True
        event.callback(*event.args)
        return True

    def run(
        self, max_events: int | None = None, max_time_ms: float | None = None
    ) -> None:
        """Drain the queue, optionally stopping after ``max_events``.

        Only events that actually fire count toward the budget — draining a
        storm of cancelled events must not starve real ones.

        ``max_time_ms`` is a livelock guard for fault simulations: if the
        next live event lies *past* the cap while work is still queued, the
        loop raises instead of running forever — a retry/backoff storm that
        never converges fails loudly at a deterministic simulated instant
        rather than hanging the process.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            if max_time_ms is not None and self._queue[0].time > max_time_ms:
                if self._queue[0].cancelled:
                    self._pop_and_run()
                    continue
                raise SimulationError(
                    f"event loop ran past its {max_time_ms} ms guard with "
                    f"{self.pending} events still pending"
                )
            if self._pop_and_run():
                executed += 1
