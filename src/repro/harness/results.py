"""Typed results produced by the query engine.

A :class:`TrialRecord` holds the raw per-query arrays of one trial (one
world, one built algorithm, one query batch) plus the scored hit masks; a
:class:`DaemonTrialRecord` adds the daemon's timing, membership and
maintenance columns; an :class:`AggregateStats` summarises one metric
across trials the way the paper plots its three simulation runs
(median/min/max, plus mean/std).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.util.errors import DataError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.scenario import Scenario


class MembershipLog:
    """Persistent diff log of the membership epochs of a daemon run.

    Epoch 0 is the initial membership; epoch ``t`` is epoch ``t - 1`` with
    ``left[t]`` removed and ``joined[t]`` appended (sorted, the order
    :meth:`repro.algorithms.base.NearestPeerAlgorithm.join` maintains).
    Recording an event stores only the changed ids — O(changes) per event
    rather than the O(|M|) full-array copy the engine used to take — so a
    long trial over a large membership costs O(events + total changes)
    memory.  An epoch's member array is reconstructed on demand
    (:meth:`membership`); :func:`repro.harness.scoring.score_epochs`
    replays :attr:`initial` and the :meth:`diffs` into an incremental
    ground-truth index instead.
    """

    def __init__(self, initial: np.ndarray) -> None:
        self._initial = np.array(initial, dtype=int, copy=True)
        self._joined: list[np.ndarray] = []
        self._left: list[np.ndarray] = []

    def append_event(
        self,
        joined: np.ndarray | Sequence[int],
        left: np.ndarray | Sequence[int],
    ) -> int:
        """Record one membership event; returns the new epoch index."""
        self._joined.append(np.asarray(joined, dtype=int))
        self._left.append(np.asarray(left, dtype=int))
        return len(self._joined)

    @property
    def initial(self) -> np.ndarray:
        """The member array of epoch 0."""
        return self._initial

    def diffs(self):
        """Yield ``(joined, left)`` of epochs 1, 2, ... in order."""
        return zip(self._joined, self._left)

    @property
    def n_epochs(self) -> int:
        """Epoch count, including the initial epoch 0."""
        return len(self._joined) + 1

    @property
    def stored_entries(self) -> int:
        """Total member ids held by the log — the memory-regression metric.

        Exactly ``|initial| + Σ |changes|``; the per-event full-snapshot
        representation this replaces stored ``Σ |M_t|`` instead.
        """
        return int(
            self._initial.size
            + sum(j.size for j in self._joined)
            + sum(x.size for x in self._left)
        )

    def _apply(self, members: np.ndarray, epoch: int) -> np.ndarray:
        left = self._left[epoch - 1]
        joined = self._joined[epoch - 1]
        if left.size:
            members = members[~np.isin(members, left)]
        if joined.size:
            members = np.concatenate([members, np.sort(joined)])
        return members

    def membership(self, epoch: int) -> np.ndarray:
        """Reconstruct the member array of one epoch."""
        if not 0 <= epoch < self.n_epochs:
            raise DataError(
                f"epoch {epoch} out of range [0, {self.n_epochs})"
            )
        members = self._initial
        for e in range(1, epoch + 1):
            members = self._apply(members, e)
        return members


@dataclass(frozen=True)
class TrialRecord:
    """Per-query outcomes of one trial, scored against ground truth.

    All arrays are parallel, one entry per query.  ``exact_hit`` marks
    queries whose found member ties the true minimum latency to the target
    (end-network mates count as ties); ``cluster_hit`` marks queries whose
    found member shares the target's cluster.
    """

    scheme: str
    world_seed: int | None
    targets: np.ndarray
    found: np.ndarray
    found_latency_ms: np.ndarray
    probes: np.ndarray
    aux_probes: np.ndarray
    hops: np.ndarray
    exact_hit: np.ndarray
    cluster_hit: np.ndarray
    #: Hub latency of each found peer (Fig 9's load-concentration axis);
    #: NaN for a query that found none.
    found_hub_latency_ms: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.targets.size
        for name in ("found", "found_latency_ms", "probes", "aux_probes",
                     "hops", "exact_hit", "cluster_hit",
                     "found_hub_latency_ms"):
            arr = getattr(self, name)
            if arr is None:
                continue
            if arr.shape != (n,):
                raise DataError(
                    f"TrialRecord.{name} has shape {arr.shape}, expected ({n},)"
                )

    # -- per-trial metrics (names double as aggregate keys) ----------------

    @property
    def n_queries(self) -> int:
        return int(self.targets.size)

    @property
    def exact_rate(self) -> float:
        """P(correct closest peer) over the batch."""
        return float(self.exact_hit.mean())

    @property
    def cluster_rate(self) -> float:
        """P(correct cluster) over the batch."""
        return float(self.cluster_hit.mean())

    @property
    def mean_probes_per_query(self) -> float:
        return float(self.probes.mean())

    @property
    def mean_aux_probes_per_query(self) -> float:
        return float(self.aux_probes.mean())

    @property
    def total_probes(self) -> int:
        return int(self.probes.sum())

    @property
    def mean_maintenance_probes_per_query(self) -> float:
        """Per-query maintenance bill: 0 under a static membership."""
        return 0.0

    @property
    def median_wrong_hub_latency_ms(self) -> float:
        """Median hub latency of found peers over answered queries that missed.

        The Fig 9 metric: when Meridian fails, does it concentrate on peers
        near the hub?  A query that found no peer has no hub latency and
        is left out.  Zero when every answered query hit (or hub data is
        absent).
        """
        if self.found_hub_latency_ms is None:
            return 0.0
        wrong = self.found_hub_latency_ms[~self.exact_hit & (self.found >= 0)]
        return float(np.median(wrong)) if wrong.size else 0.0


@dataclass(frozen=True, kw_only=True)
class DaemonTrialRecord(TrialRecord):
    """A :class:`TrialRecord` from the simulated-time query daemon.

    On top of the classic per-query arrays it carries the *timing* arrays
    (all in simulated ms): when each query arrived, when it entered
    service (after any FIFO wait behind its entry node's concurrency cap)
    and when its answer landed.  Queries are in arrival order.  The
    headline metric is **time to answer** — ``finish - arrival`` —
    summarised by the percentile properties the daemon scenarios rank
    schemes with.

    It also carries the membership columns: the live membership size per
    query, the membership events applied and their exact per-event bills
    from the maintenance ledger.  The maintenance metrics derive from the
    ledger alone: :attr:`total_maintenance_probes` is
    ``sum(maintenance_by_event) + maintenance_background_probes``.
    """

    #: Live membership size when each query entered service.
    membership_size: np.ndarray
    #: Membership events (non-empty join/leave calls) the run applied, so
    #: maintenance cost can be normalised per event as well as per query.
    n_churn_events: int = 0
    #: Service-mode phase this record belongs to (``None`` for a
    #: single-phase run).
    phase: str | None = None

    #: Simulated arrival / service-start / answer times per query.
    arrival_ms: np.ndarray
    start_ms: np.ndarray
    finish_ms: np.ndarray
    #: Probe rounds each query's plan issued (its critical-path depth).
    probe_rounds: np.ndarray
    #: Simulated time from first arrival to last answer.
    makespan_ms: float = 0.0
    #: Time-weighted mean / peak of queries FIFO-queued behind node caps.
    queue_depth_time_avg: float = 0.0
    queue_depth_max: int = 0
    #: Time-weighted mean / peak of probes simultaneously in flight.
    in_flight_probes_time_avg: float = 0.0
    in_flight_probes_max: int = 0
    #: Continuous Meridian ring-repair totals (0 for other schemes).
    ring_repair_passes: int = 0
    ring_repair_nodes: int = 0
    ring_repair_probes: int = 0
    #: Timer-forced deferred-maintenance flushes.
    forced_flushes: int = 0
    #: Fault-path bills per query (all zero without a fault model).
    probe_drops: np.ndarray
    probe_retransmits: np.ndarray
    probe_timeouts: np.ndarray
    relayed_probes: np.ndarray
    query_retries: np.ndarray
    #: Total simulated ms the run's probes spent on NAT relay detours.
    relay_extra_ms: float = 0.0
    #: The deadline that ended each query (``FaultSpec.deadline_ms``).
    deadline_ms: float = float("inf")
    #: Exact per-membership-event maintenance bills from the algorithm's
    #: ledger, length ``n_churn_events``; each entry is invariant to which
    #: in-flight query finishes first.
    maintenance_by_event: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: Maintenance attributable to no membership event (Meridian's
    #: continuous ring repair).  ``sum(maintenance_by_event) +
    #: maintenance_background_probes == total_maintenance_probes``.
    maintenance_background_probes: int = 0
    #: Event-loop diagnostics: events executed, live events left queued at
    #: drain (always 0 for a clean run), the largest raw heap ever held,
    #: and the lifetime cancelled-event count (the periodic timers still
    #: armed at shutdown, at most three).
    loop_events: int = 0
    loop_pending_at_drain: int = 0
    loop_queue_peak: int = 0
    loop_cancelled_events: int = 0
    #: Trace stream (tuple of :class:`repro.obs.trace.Span`, canonical
    #: order) and sampled metrics
    #: (:class:`repro.obs.metrics.TimeSeriesBlock`); ``None`` unless the
    #: trial ran with ``DaemonSpec.trace`` set.
    spans: tuple | None = None
    timeseries: object | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.targets.size
        for name in (
            "membership_size",
            "arrival_ms",
            "start_ms",
            "finish_ms",
            "probe_rounds",
            "probe_drops",
            "probe_retransmits",
            "probe_timeouts",
            "relayed_probes",
            "query_retries",
        ):
            shape = np.shape(getattr(self, name))
            if shape != (n,):
                raise DataError(
                    f"DaemonTrialRecord.{name} has shape {shape}, "
                    f"expected ({n},)"
                )
        ledger = self.maintenance_by_event
        if ledger.shape != (self.n_churn_events,):
            raise DataError(
                f"DaemonTrialRecord.maintenance_by_event has shape "
                f"{ledger.shape}, expected ({self.n_churn_events},)"
            )

    @property
    def mean_maintenance_probes_per_query(self) -> float:
        """The run's whole maintenance bill spread over its queries."""
        return self.total_maintenance_probes / self.n_queries

    @property
    def total_maintenance_probes(self) -> int:
        """Every maintenance probe of the run, from the ledger."""
        return int(self.maintenance_by_event.sum()) + int(
            self.maintenance_background_probes
        )

    @property
    def mean_membership_size(self) -> float:
        """Mean live-membership size over the queries."""
        return float(self.membership_size.mean())

    @property
    def maintenance_probes_per_event(self) -> float:
        """Mean exact per-event maintenance bill from the ledger.

        Background repair such as Meridian ring maintenance is excluded —
        it is reported separately as :attr:`maintenance_background_probes`.
        """
        if self.maintenance_by_event.size == 0:
            return 0.0
        return float(self.maintenance_by_event.mean())

    # -- timing metrics ----------------------------------------------------

    @property
    def time_to_answer_ms(self) -> np.ndarray:
        """Per-query answer latency: arrival to answer, queueing included."""
        return self.finish_ms - self.arrival_ms

    @property
    def queue_wait_ms(self) -> np.ndarray:
        """Per-query FIFO wait before entering service."""
        return self.start_ms - self.arrival_ms

    @property
    def service_time_ms(self) -> np.ndarray:
        """Per-query in-service time (the probing critical path)."""
        return self.finish_ms - self.start_ms

    def _answered_tta(self, statistic) -> float:
        """``statistic`` over the answered queries' times (NaN if none).

        A query the deadline ended unanswered (``found = -1``) has a
        failure time, not a time to answer, so the tta summaries leave it
        out; :attr:`availability` counts it.
        """
        tta = self.time_to_answer_ms[self.found >= 0]
        return float(statistic(tta)) if tta.size else float("nan")

    @property
    def tta_mean_ms(self) -> float:
        return self._answered_tta(np.mean)

    @property
    def tta_median_ms(self) -> float:
        return self._answered_tta(lambda tta: np.percentile(tta, 50))

    @property
    def tta_p95_ms(self) -> float:
        return self._answered_tta(lambda tta: np.percentile(tta, 95))

    @property
    def tta_p99_ms(self) -> float:
        return self._answered_tta(lambda tta: np.percentile(tta, 99))

    @property
    def mean_queue_wait_ms(self) -> float:
        return float(self.queue_wait_ms.mean())

    @property
    def mean_probe_rounds(self) -> float:
        """Mean critical-path depth (sequential probe rounds per query)."""
        return float(self.probe_rounds.mean())

    @property
    def simulated_queries_per_sec(self) -> float:
        """Answer throughput in simulated time."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.n_queries / (self.makespan_ms / 1000.0)

    # -- fault metrics -----------------------------------------------------

    @property
    def availability(self) -> float:
        """Fraction of queries answered, and answered within the deadline.

        A query that failed at its deadline (``found = -1``) may still
        have ended before it, so an answer is required as well as the
        time.  1.0 when no deadline is set: only a spec that cannot drop
        a probe may leave it infinite, and there every query answers.
        """
        if not np.isfinite(self.deadline_ms):
            return 1.0
        on_time = self.time_to_answer_ms <= self.deadline_ms
        return float((on_time & (self.found >= 0)).mean())

    @property
    def total_probe_drops(self) -> int:
        return int(self.probe_drops.sum())

    @property
    def total_probe_retransmits(self) -> int:
        return int(self.probe_retransmits.sum())

    @property
    def total_probe_timeouts(self) -> int:
        return int(self.probe_timeouts.sum())

    @property
    def total_relayed_probes(self) -> int:
        return int(self.relayed_probes.sum())

    @property
    def total_query_retries(self) -> int:
        return int(self.query_retries.sum())


@dataclass(frozen=True)
class AggregateStats:
    """One metric summarised across trials (the paper's median/min/max)."""

    metric: str
    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    std: float

    @classmethod
    def from_values(cls, metric: str, values: Sequence[float]) -> "AggregateStats":
        if len(values) == 0:
            raise DataError(f"cannot aggregate zero values for {metric!r}")
        arr = np.asarray(values, dtype=float)
        return cls(
            metric=metric,
            count=int(arr.size),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            std=float(arr.std()),
        )

    def describe(self) -> str:
        """One-line summary for experiment logs."""
        return (
            f"{self.metric}: median={self.median:.4g} "
            f"[{self.minimum:.4g}, {self.maximum:.4g}] over {self.count} trials"
        )


@dataclass(frozen=True)
class ScenarioResult:
    """All trials of one scenario, with cross-trial aggregation."""

    scenario: "Scenario"
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.records)

    def values(self, metric: str) -> list[float]:
        """The per-trial values of a :class:`TrialRecord` metric."""
        if not self.records:
            raise DataError(f"scenario {self.scenario.name!r} produced no trials")
        return [float(getattr(record, metric)) for record in self.records]

    def aggregate(self, metric: str) -> AggregateStats:
        """Summarise a per-trial metric across all trials."""
        return AggregateStats.from_values(metric, self.values(metric))
