"""Per-query spans on simulated time.

A :class:`Span` is one closed interval ``[start_ms, end_ms]`` of the
daemon's simulated clock, named for the phase it covers:

* ``query`` — the root: one per query, ``[arrival, answer]``, parent of
  every other span of that query (``seq`` 0);
* ``queue_wait`` — arrival to service start (zero-length when the entry
  node had a free slot);
* ``dispatch`` — the zero-length service-start marker carrying the
  admission attributes (entry node, membership size, epoch);
* ``probe_round`` — one per probe fan-out, open at dispatch and closed
  when the plan actually resumes, so faults, retransmit ladders, relay
  detours and skewed timeout waits are all inside the measured interval;
* ``plan_retry`` — the backoff gap between a fully-faulted plan attempt
  and its restart;
* ``maintenance_flush`` — index repair, tagged with the maintenance
  ledger's event ids (``query`` is ``None``: repair belongs to the
  membership process, not to any one query).

Within one query the non-root spans tile ``[arrival, finish]`` exactly —
each span ends on the float the next one starts on — which is what lets
``repro-trace`` account every simulated millisecond of a query's time to
answer to a phase.

The tracer is **passive**: every number on a span comes from the event
loop's clock or the driver's own counters.  No oracle reads, no rng
draws (statically pinned by the ``obs-passivity`` lint rule), so tracing
cannot perturb the run it observes.  :func:`sort_spans` defines the one
canonical stream order, so a fixed-seed run replays its trace bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.util.errors import SimulationError

#: Span names, in rendering-rank order (root first).
SPAN_NAMES = (
    "query",
    "queue_wait",
    "dispatch",
    "probe_round",
    "plan_retry",
    "maintenance_flush",
)


@dataclass(slots=True)
class Span:
    """One named interval of simulated time (see module docstring).

    A plain slots dataclass rather than a frozen one: spans are created
    on the daemon's hot path (one per round, per wait, per flush), and
    ``object.__setattr__``-based frozen construction costs enough there
    to show up in the traced-run wall-clock ratio the perf smoke gates.
    Nothing mutates a span after the tracer appends it.
    """

    name: str
    start_ms: float
    end_ms: float
    #: Global query index, or ``None`` for maintenance spans.
    query: int | None = None
    #: Ordinal within the query (0 = the root ``query`` span); for
    #: maintenance spans, the ordinal within the maintenance stream.
    seq: int = 0
    #: ``seq`` of the parent span (0 for per-query children, ``None``
    #: for roots and maintenance spans).
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


def sort_spans(spans: list[Span]) -> list[Span]:
    """The canonical stream order: time, then query, then per-query seq.

    Every key component comes from the pinned timeline (span times) or
    the job's own event order (``seq``), so the sorted stream does not
    depend on the order the tracer happened to append spans in.
    Maintenance spans (``query is None``) sort before queries at equal
    times.
    """
    return sorted(
        spans,
        key=lambda s: (s.start_ms, -1 if s.query is None else s.query, s.seq),
    )


class Tracer:
    """Collects spans (and hosts the run's :class:`MetricsRegistry`).

    One tracer per daemon instance.  Per-query spans are opened
    at dispatch and closed when the *driver's next event for that query
    actually fires*, so span boundaries are loop timestamps — never
    recomputed arithmetic that could drift from the timeline.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        #: Next child ``seq`` per query (0 is reserved for the root).
        self._job_seq: dict[int, int] = {}
        #: One open (name, start_ms, attrs) per query, closed by the next
        #: driver event for that query.
        self._open: dict[int, tuple[str, float, dict]] = {}
        self._maintenance_seq = 0

    # -- per-query spans ---------------------------------------------------

    def _next_seq(self, query: int) -> int:
        seq = self._job_seq.get(query, 1)
        self._job_seq[query] = seq + 1
        return seq

    def emit(
        self, name: str, query: int, start_ms: float, end_ms: float, **attrs
    ) -> None:
        """Record one closed child span of ``query``.

        Hot path (one call per wait/round/retry): the loop clock already
        hands us floats and the driver an int index, so no defensive
        conversions — every avoidable microsecond here widens the margin
        on the perf smoke's trace-on/off wall-clock gate.
        """
        query = int(query)
        seq = self._job_seq.get(query, 1)
        self._job_seq[query] = seq + 1
        self.spans.append(Span(name, start_ms, end_ms, query, seq, 0, attrs))

    def open(self, query: int, name: str, start_ms: float, **attrs) -> None:
        """Open a span whose end is the query's next driver event."""
        query = int(query)
        if query in self._open:
            raise SimulationError(
                f"query {query} already has an open {self._open[query][0]!r} "
                f"span; cannot open {name!r}"
            )
        self._open[query] = (name, float(start_ms), attrs)

    def close(self, query: int, end_ms: float) -> None:
        """Close the query's open span at ``end_ms`` (no-op if none open)."""
        query = int(query)
        pending = self._open.pop(query, None)
        if pending is None:
            return
        name, start_ms, attrs = pending
        seq = self._job_seq.get(query, 1)
        self._job_seq[query] = seq + 1
        self.spans.append(Span(name, start_ms, end_ms, query, seq, 0, attrs))

    def root(
        self, query: int, start_ms: float, end_ms: float, **attrs
    ) -> None:
        """Record the query's root span (``seq`` 0, parent of the rest)."""
        query = int(query)
        if query in self._open:
            raise SimulationError(
                f"query {query} finished with an open "
                f"{self._open[query][0]!r} span"
            )
        self.spans.append(
            Span("query", float(start_ms), float(end_ms), query, 0, None, attrs)
        )

    # -- maintenance spans -------------------------------------------------

    def maintenance(self, start_ms: float, end_ms: float, **attrs) -> None:
        """Record one ``maintenance_flush`` span (no owning query)."""
        self.spans.append(
            Span(
                "maintenance_flush",
                float(start_ms),
                float(end_ms),
                None,
                self._maintenance_seq,
                None,
                attrs,
            )
        )
        self._maintenance_seq += 1

    # -- stream access -----------------------------------------------------

    def sorted_spans(self) -> list[Span]:
        """All spans in the canonical stream order."""
        if self._open:
            raise SimulationError(
                f"{len(self._open)} spans still open: "
                f"{sorted(self._open)[:8]}"
            )
        return sort_spans(self.spans)


def spans_by_query(spans: list[Span]) -> dict[int, list[Span]]:
    """Group a stream's per-query spans, each group in ``seq`` order."""
    grouped: dict[int, list[Span]] = {}
    for span in spans:
        if span.query is not None:
            grouped.setdefault(span.query, []).append(span)
    for group in grouped.values():
        group.sort(key=lambda s: s.seq)
    return grouped
