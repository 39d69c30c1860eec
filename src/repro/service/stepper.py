"""Plan stepping for the query daemon.

The daemon resumes a query plan when its current probe round completes.
:class:`PlanBatchStepper` simulates that completion: a round's delays are
one numpy array (the :class:`~repro.algorithms.base.ProbeRound` the plan
yielded already carries them struct-of-arrays), the plan resumes on a
*single* round-completion event at the slowest probe's arrival, and the
in-flight probe integral is accrued analytically — each round adds its
``sum(delays)`` to the area (each probe is in flight for exactly its
delay), and the peak is reconstructed from the recorded (time, ±k)
breakpoints in one vectorised sort/cumsum at the end.  O(rounds) loop
events, independent of fan-out.

Membership events interleave with these round events on the one loop;
their maintenance is billed per event on the algorithm's ledger
(``DaemonRun.maintenance_by_event``), which is exact and replays bit for
bit at a fixed seed whichever in-flight plan finishes first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.algorithms.base import ProbeRound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.daemon import QueryDaemon, QueryJob


def round_delays(
    daemon: "QueryDaemon", job: "QueryJob", batch: ProbeRound
) -> np.ndarray:
    """Per-probe completion delays for one round, as one float array.

    ``zero_delay`` collapses everything; otherwise each probe completes
    after the RTT it measured, plus — when the spec charges the
    coordination hop — the entry->prober dispatch RTT drawn through the
    network's vectorised path draw.
    """
    spec = daemon.spec
    if spec.zero_delay:
        return np.zeros(len(batch))
    rtts = batch.rtts_ms
    if spec.charge_dispatch:
        rtts = rtts + daemon.network.path_rtts(job.entry, batch.srcs)
    return rtts


def round_outcome(
    daemon: "QueryDaemon", job: "QueryJob", batch: ProbeRound
) -> np.ndarray:
    """Per-probe completion delays for one round, faults applied.

    The fault-aware front of :func:`round_delays`: with no fault model (or
    an inert one) it *is* ``round_delays`` — not an extra draw, not a
    changed event — which is what keeps zero-fault daemon timelines
    bit-identical to the fault-free code.  With faults active, the round
    is run through :meth:`~repro.netsim.network.Network.apply_faults` on
    the job's private fault stream: each probe's completion becomes its
    answer arrival (after losses, retransmit waits and relay detours) or
    its timeout exhaustion, the per-probe answered mask is stashed on the
    job for the next plan resume, and the drop/retransmit/timeout/relay
    counters are billed to the job.

    Because the job's fault stream is consumed strictly in the job's own
    round order, the outcome is invariant to cross-job interleaving.
    """
    delays = round_delays(daemon, job, batch)
    fault_model = daemon.fault_model
    stats = None
    if fault_model is not None and fault_model.active:
        delays, answered, stats = daemon.network.apply_faults(
            daemon.job_fault_rng(job), batch.srcs, batch.dsts, delays
        )
        job.probe_drops += int(stats["dropped"])
        job.probe_retransmits += int(stats["retransmitted"])
        job.probe_timeouts += int(stats["timed_out"])
        job.relayed_probes += int(stats["relayed"])
        job._pending_mask = answered
        if daemon.spec.zero_delay:
            delays = np.zeros_like(delays)
    tracer = daemon.tracer
    if tracer is not None:
        now = daemon.loop.now
        attrs = {
            "probes": len(batch),
            "round": job.rounds,
            "attempt": job.retries,
        }
        if stats is not None:
            metrics = tracer.metrics
            for key, counter_name in (
                ("dropped", "probes_dropped"),
                ("retransmitted", "probes_retransmitted"),
                ("timed_out", "probes_timed_out"),
                ("relayed", "probes_relayed"),
            ):
                count = int(stats[key])
                if count:
                    attrs[key] = count
                    metrics.counter(counter_name).inc(now, count)
        # Open-ended: the span closes when the plan actually resumes, so
        # retransmit ladders and relay detours are inside the interval.
        tracer.open(job.index, "probe_round", now, **attrs)
    return delays


class PlanBatchStepper:
    """One loop event per probe *round* — the vectorised path.

    A round of k probes costs one numpy max/sum over its delay array and
    one scheduled event, instead of k message objects, k heap pushes and
    k callback dispatches.  With fan-outs of 32–1000 probes this is what
    makes the event loop's per-step cost independent of both fan-out and
    population.
    """

    def __init__(self, daemon: "QueryDaemon") -> None:
        self.daemon = daemon
        self.area = 0.0
        self.peak = 0
        # (time, delta) breakpoints: +k at each round's issue instant,
        # -1 at each probe's arrival.  Peak in-flight is reconstructed in
        # one vectorised pass at finalize; ties break in insertion order
        # (each round appends its send instant before its arrivals, in
        # send order).
        self.bp_times: list[np.ndarray] = []
        self.bp_deltas: list[np.ndarray] = []

    def dispatch_round(self, job: "QueryJob", batch: ProbeRound) -> None:
        daemon = self.daemon
        delays = round_outcome(daemon, job, batch)
        now = daemon.loop.now
        k = delays.size
        # Each probe is in flight for exactly its delay.
        self.area += float(delays.sum())
        self.bp_times.append(np.array([now]))
        self.bp_deltas.append(np.array([k]))
        self.bp_times.append(now + delays)
        self.bp_deltas.append(np.full(k, -1))
        # The round completes with its slowest probe.
        daemon.loop.schedule(float(delays.max()), daemon._advance, job)

    def finalize(self) -> None:
        self.peak = peak_from_breakpoints(self.bp_times, self.bp_deltas)


def peak_from_breakpoints(
    times: list[np.ndarray], deltas: list[np.ndarray]
) -> int:
    """Max running sum of ±k deltas ordered by time (stable on ties)."""
    if not times:
        return 0
    order = np.argsort(np.concatenate(times), kind="stable")
    running = np.cumsum(np.concatenate(deltas)[order])
    return int(running.max()) if running.size else 0
