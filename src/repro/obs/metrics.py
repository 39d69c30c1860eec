"""Breakpoint-backed metrics sampled on simulated-time intervals.

The daemon's hot path already records the exact change-points of its
load curves — (time, ±k) breakpoints for queue depth and in-flight
probes (from which the peaks are reconstructed).  The registry generalises
that representation: a :class:`Counter` or :class:`Gauge` is a list of
timestamped deltas, and *sampling* is a single vectorised
sort/cumsum/searchsorted pass at finalize — nothing runs on the event
loop, so metrics collection adds no loop events, consumes no rng, and
cannot perturb the timeline it measures.

A sampled value at time ``t`` is just the integer sum of all deltas
with timestamp ``<= t``, so it does not depend on the order tied
breakpoints were recorded in.

:class:`Histogram` is the fixed-bucket distribution companion (flush
sizes, round fan-outs); :class:`TimeSeriesBlock` is the JSON-friendly
sampled block a :class:`~repro.harness.results.DaemonTrialRecord`
carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ConfigurationError, DataError


class _BreakpointSeries:
    """Timestamped integer deltas; values reconstructed by prefix sum."""

    def __init__(self) -> None:
        self._times: list[np.ndarray] = []
        self._deltas: list[np.ndarray] = []

    def add(self, time_ms: float, delta: int) -> None:
        """Record one change-point (cheap: two 1-element array appends)."""
        if delta:
            self._times.append(np.array([float(time_ms)]))
            self._deltas.append(np.array([int(delta)], dtype=np.int64))

    def extend(self, times_ms: np.ndarray, deltas: np.ndarray) -> None:
        """Adopt a pre-recorded breakpoint stream (e.g. the daemon's)."""
        times_ms = np.asarray(times_ms, dtype=float)
        deltas = np.asarray(deltas, dtype=np.int64)
        if times_ms.shape != deltas.shape:
            raise DataError(
                f"breakpoint arrays disagree: {times_ms.shape} vs {deltas.shape}"
            )
        if times_ms.size:
            self._times.append(times_ms)
            self._deltas.append(deltas)

    def _compiled(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._times:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        times = np.concatenate(self._times)
        deltas = np.concatenate(self._deltas)
        order = np.argsort(times, kind="stable")
        return times[order], np.cumsum(deltas[order])

    def series_at(self, sample_times_ms: np.ndarray) -> np.ndarray:
        """Value at each sample instant (deltas at exactly ``t`` included).

        Integer prefix sums are order-independent within a timestamp, so
        the result does not depend on how tied breakpoints interleave.
        """
        times, running = self._compiled()
        sample_times_ms = np.asarray(sample_times_ms, dtype=float)
        out = np.zeros(sample_times_ms.size, dtype=np.int64)
        if running.size:
            idx = np.searchsorted(times, sample_times_ms, side="right")
            np.copyto(out, running[idx - 1], where=idx > 0)
        return out


class Counter(_BreakpointSeries):
    """Monotone event count over simulated time (drops, retransmits…)."""

    def inc(self, time_ms: float, by: int = 1) -> None:
        if by < 0:
            raise ConfigurationError(f"counter increment must be >= 0: {by}")
        self.add(time_ms, by)

    @property
    def total(self) -> int:
        _, running = self._compiled()
        return int(running[-1]) if running.size else 0


class Gauge(_BreakpointSeries):
    """Signed level (queue depth, in-flight probes): ±k change-points."""


class Histogram:
    """Fixed-bucket distribution: ``len(edges) + 1`` counts, last = overflow.

    Bucket ``i`` holds values in ``[edges[i-1], edges[i])`` (bucket 0 is
    ``(-inf, edges[0])``).
    """

    def __init__(self, edges: np.ndarray | list[float]) -> None:
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.size == 0 or np.any(np.diff(self.edges) <= 0):
            raise ConfigurationError(
                f"histogram edges must be non-empty and increasing: {edges}"
            )
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)

    def observe(self, value: float) -> None:
        self.counts[int(np.searchsorted(self.edges, value, side="right"))] += 1

    def observe_many(self, values: np.ndarray | list[float]) -> None:
        values = np.asarray(values, dtype=float)
        if values.size:
            idx = np.searchsorted(self.edges, values, side="right")
            np.add.at(self.counts, idx, 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class MetricsRegistry:
    """Named counters / gauges / histograms for one daemon run.

    Instruments are created on first use and listed in creation order;
    iteration and export sort by name so the registry's shape never
    depends on instrumentation order.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str, edges: np.ndarray | list[float]) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(edges)
        return self._histograms[name]

    def sample(self, sample_times_ms: np.ndarray) -> "TimeSeriesBlock":
        """Evaluate every series at the given simulated instants."""
        sample_times_ms = np.asarray(sample_times_ms, dtype=float)
        series = {
            name: instrument.series_at(sample_times_ms)
            for name, instrument in sorted(
                {**self._counters, **self._gauges}.items()
            )
        }
        histograms = {
            name: {
                "edges": hist.edges.copy(),
                "counts": hist.counts.copy(),
            }
            for name, hist in sorted(self._histograms.items())
        }
        return TimeSeriesBlock(
            times_ms=sample_times_ms, series=series, histograms=histograms
        )


@dataclass
class TimeSeriesBlock:
    """The sampled metrics block on a daemon trial record.

    ``series[name][i]`` is the instrument's value at ``times_ms[i]``;
    histograms are carried as ``{"edges": ..., "counts": ...}`` pairs.
    """

    times_ms: np.ndarray
    series: dict[str, np.ndarray] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-list form for JSON export."""
        return {
            "times_ms": self.times_ms.tolist(),
            "series": {k: v.tolist() for k, v in sorted(self.series.items())},
            "histograms": {
                k: {
                    "edges": v["edges"].tolist(),
                    "counts": v["counts"].tolist(),
                }
                for k, v in sorted(self.histograms.items())
            },
        }


#: Power-of-two bucket edges for probe-count distributions (last bucket
#: catches anything past 16384 probes).
PROBE_COUNT_EDGES = tuple(float(2**k) for k in range(15))


def populate_span_histograms(registry: MetricsRegistry, spans) -> None:
    """Fill the distribution instruments from a *finished* span stream.

    Built post-hoc from the finished stream rather than on the hot path.
    ``spans`` is any iterable of :class:`~repro.obs.trace.Span`-shaped
    objects.
    """
    rounds = registry.histogram("round_probes", PROBE_COUNT_EDGES)
    flushes = registry.histogram("flush_probes", PROBE_COUNT_EDGES)
    round_probes: list[float] = []
    flush_probes: list[float] = []
    for span in spans:
        if span.name == "probe_round":
            round_probes.append(span.attrs.get("probes", 0))
        elif span.name == "maintenance_flush":
            flush_probes.append(span.attrs.get("probes", 0))
    rounds.observe_many(round_probes)
    flushes.observe_many(flush_probes)


def sample_times(makespan_ms: float, interval_ms: float) -> np.ndarray:
    """The run's sampling grid: ``0, dt, 2·dt, …`` covering the makespan."""
    if interval_ms <= 0:
        raise ConfigurationError(
            f"sample interval must be positive, got {interval_ms}"
        )
    n = int(np.floor(makespan_ms / interval_ms)) + 1
    return np.arange(n, dtype=float) * float(interval_ms)
