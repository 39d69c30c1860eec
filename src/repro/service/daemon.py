"""The discrete-event nearest-peer query daemon.

One :class:`QueryDaemon` owns an :class:`~repro.netsim.engine.EventLoop`,
a :class:`~repro.netsim.network.Network` and one *built*
:class:`~repro.algorithms.base.NearestPeerAlgorithm`, and serves a batch
of Poisson-arriving queries under latency-faithful timing:

* each query is a stepwise plan
  (:meth:`~repro.algorithms.base.NearestPeerAlgorithm.query_plan`); a
  probe round is one numpy delay array and the plan resumes on *one*
  round event at the slowest probe's arrival, so a round costs O(1)
  loop events whatever its fan-out;
* queries are admitted at a random live entry node, at most
  ``per_node_concurrency`` in service per node (one ``int32`` counter
  per node id), the rest FIFO-queued per node;
* membership events (counted join/leave maintenance, with session
  expiry when ``session_length_ms`` is set), forced
  deferred-maintenance flushes and continuous Meridian ring repair
  (:func:`~repro.meridian.gossip.repair_overlay_rings`) fire on the same
  loop.

The in-flight probe integral is accrued analytically (each probe is in
flight for exactly its delay) and its peak is reconstructed from the
recorded (time, ±k) breakpoints in one sort/cumsum when the run ends.
The queue load needs no hot-path record beyond the live depth and its
peak: its integral and traced gauge are read off the finished jobs'
arrival and start times.  The finished daemon then drops the breakpoints
and stands as the run's record (:meth:`QueryDaemon.run` returns it).

The daemon is deterministic: one workload generator drives arrivals,
targets, entry choices and membership draws; one algorithm generator
drives build/query/maintenance randomness.  Same seeds, same timeline.

**Dispatch model.** A probe round completes after its slowest probe's
RTT.  By default the coordination hop (asking member *p* to probe the
target) is not billed in time — the daemon measures the scheme's
*probing* critical path, the quantity the paper's lower bound speaks to.
``DaemonSpec.charge_dispatch`` adds the entry->prober dispatch RTT to
each probe's completion, pricing the hop the real protocol pays.
``zero_delay`` collapses all delays; the loop then serialises queries
and the daemon reproduces blocking ``query()`` results bit for bit.

**Faults and the deadline.** Under ``DaemonSpec.faults`` a plan attempt
whose every probe was lost returns the no-answer sentinel; the daemon
then retries the whole plan after a growing gap.  The query's deadline
(``FaultSpec.deadline_ms`` after its arrival) is the one rule that ends
it: a retry that would start at or after the deadline does not start,
and the query finishes failed (``found = -1``) with the bills of every
attempt it made.  Each retry that does start waits at least
``query_retry_ms > 0``, so every query ends in finitely many attempts and
every valid spec drains by construction — the loop needs no guard.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm, ProbeRound, SearchResult
from repro.harness.results import MembershipLog
from repro.harness.scenario import DaemonSpec
from repro.netsim.engine import EventLoop
from repro.netsim.network import FaultModel, Network
from repro.obs.trace import Tracer
from repro.util.errors import ConfigurationError, SimulationError


@dataclass
class QueryJob:
    """One query's lifecycle on the daemon."""

    index: int
    target: int
    entry: int
    arrival_ms: float
    start_ms: float = -1.0
    finish_ms: float = -1.0
    #: Membership epoch (index into the daemon's log) at service start.
    epoch: int = 0
    membership_size: int = 0
    result: SearchResult | None = None
    #: Probe rounds the plan issued (diagnostic).
    rounds: int = 0
    #: Fault-path bills (all zero without an active fault model).
    probe_drops: int = 0
    probe_retransmits: int = 0
    probe_timeouts: int = 0
    relayed_probes: int = 0
    #: Whole-plan restarts after a fully-faulted attempt.
    retries: int = 0
    plan: Iterator | None = field(default=None, repr=False)
    #: Per-probe answered mask of the round in flight (None = all answered).
    _pending_mask: np.ndarray | None = field(default=None, repr=False)
    #: The job's private fault stream, keyed ``(*fault_key, index)``
    #: (created at its first faulted round; consumed in the job's own
    #: round order, so outcomes are invariant to interleaving).
    _fault_rng: np.random.Generator | None = field(default=None, repr=False)
    #: Probe bills carried over from failed plan attempts.
    _carry_probes: int = field(default=0, repr=False)
    _carry_aux: int = field(default=0, repr=False)

    @property
    def time_to_answer_ms(self) -> float:
        return self.finish_ms - self.arrival_ms


class QueryDaemon:
    """Serves nearest-peer queries under concurrent simulated-time load.

    The caller supplies a *built* algorithm plus the workload inputs; the
    engine front-end (:meth:`repro.harness.engine.QueryEngine.run_daemon_trial`)
    handles the member/standby split and build, splitting the workload
    stream off first so one integer seed replays everything.  A phased
    run hands the next daemon this one's standby pool and open session
    timers (``sessions``: node -> remaining lifetime in ms).

    Workload draw order (pinned — the determinism and zero-delay
    equivalence tests replay it): per arrival, *target*, then *entry
    node*, then (while arrivals remain) the next *inter-arrival gap*;
    membership ticks draw departures, then arrivals, then (with
    ``session_length_ms``) the arrivals' lifetimes, then the next gap.
    Expired sessions leave before the random departure draw.
    """

    def __init__(
        self,
        algorithm: NearestPeerAlgorithm,
        spec: DaemonSpec,
        targets: np.ndarray,
        workload_rng: np.random.Generator,
        algo_rng: np.random.Generator,
        standby: list[int] | None = None,
        fault_model: FaultModel | None = None,
        fault_key: tuple[int, ...] | None = None,
        sessions: dict[int, float] | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.spec = spec
        self.targets = np.asarray(targets, dtype=int)
        if self.targets.size == 0:
            raise ConfigurationError("the daemon needs a non-empty target pool")
        if fault_model is not None and fault_key is None:
            raise ConfigurationError(
                "a fault model needs a fault_key (the dedicated stream seed)"
            )
        self.workload_rng = workload_rng
        self.algo_rng = algo_rng
        self.standby: list[int] = list(standby) if standby is not None else []
        self.loop = EventLoop()
        self.fault_model = fault_model
        self.fault_key = tuple(int(x) for x in fault_key) if fault_key else None
        self.network = Network(
            self.loop, algorithm.oracle, fault_model=fault_model
        )
        self.memberships = MembershipLog(algorithm.members)
        # Non-empty membership events applied (join and leave counted apart).
        self.n_events = 0
        # This run's share of the ledger starts where the previous run on
        # the same algorithm (an earlier phase) left it.
        ledger = algorithm.maintenance_ledger
        self._ledger_start = (ledger.n_events, ledger.background)
        # Session timers: a (due_ms, node) heap plus each node's current
        # due time, which marks heap entries stale once the node leaves —
        # a node that left early and rejoined lives out its new session.
        self._expiries: list[tuple[float, int]] = []
        self._session_due: dict[int, float] = {}
        for node, remaining in sorted((sessions or {}).items()):
            self._open_session(int(node), float(remaining))
        self.jobs: list[QueryJob] = []
        # Admission: queries in service per entry node id, and each
        # node's FIFO queue behind the concurrency cap.
        self._in_service = np.zeros(algorithm.oracle.n_nodes, dtype=np.int32)
        self._fifo: dict[int, deque[QueryJob]] = {}
        # Live queue depth and its peak (the peak depends on the order of
        # tied admissions and releases, so it is tracked as they happen).
        self._queued = 0
        self.queue_depth_max = 0
        # In-flight probe accounting: (time, delta) breakpoints, +k at
        # each round's issue instant and -1 at each probe's arrival; ties
        # break in insertion order when ``run`` reconstructs the peak.
        self._flight_area = 0.0
        self._flight_bp_times: list[np.ndarray] = []
        self._flight_bp_deltas: list[np.ndarray] = []
        # Run bookkeeping.
        self._n_queries = 0
        self._arrived = 0
        self._finished = 0
        # Loop entries of the periodic timers, cancelled at shutdown.
        self._membership_timer: list | None = None
        self._flush_timer: list | None = None
        self._repair_timer: list | None = None
        self.forced_flushes = 0
        self.ring_repair_passes = 0
        self.ring_repair_nodes = 0
        self.ring_repair_probes = 0
        # Run summary, derived when ``run`` ends.
        self.makespan_ms = 0.0
        self.queue_depth_time_avg = 0.0
        self.in_flight_probes_time_avg = 0.0
        self.in_flight_probes_max = 0
        self.maintenance_by_event = np.zeros(0, dtype=np.int64)
        self.maintenance_background_probes = 0
        self.spans: list | None = None
        self.metrics = None
        # Tracing is strictly opt-in: with ``spec.trace`` unset the hot
        # path carries one ``is None`` check per hook and nothing else.
        self.tracer: Tracer | None = (
            Tracer() if spec.trace is not None else None
        )
        if self.tracer is not None:
            algorithm._flush_observer = self._observe_flush

    # -- run ---------------------------------------------------------------

    def run(self, n_queries: int, drain: bool = False) -> QueryDaemon:
        """Serve ``n_queries`` queries to completion; return the finished daemon.

        Every query ends, answered or failed at its deadline, so the loop
        drains.  ``drain`` flushes any still-buffered maintenance once the
        last query ends, so a phase's bill cannot leak into the next
        phase's ledger.

        The finished daemon is the run's record: ``jobs`` (arrival order),
        ``memberships``, the counters, ``loop`` and ``network`` as they
        ended, plus what this method derives.  The time-weighted means
        integrate the queue depth / in-flight probe count over
        ``makespan_ms``, so an idle tail dilutes them exactly as it would
        a production dashboard's; the queue integral is the jobs' summed
        wait (``start_ms - arrival_ms``).  ``maintenance_by_event`` holds
        the ledger's exact per-event bills for the events this run applied
        (in observation order) and ``maintenance_background_probes`` the bill
        with no membership-event cause (ring repair); together they are
        the run's whole maintenance bill, warmup and phase-boundary drain
        included.  ``spans``/``metrics`` stay ``None`` unless
        ``DaemonSpec.trace`` is set.
        """
        if n_queries < 1:
            raise ConfigurationError(f"n_queries must be >= 1, got {n_queries}")
        if self.jobs:
            raise ConfigurationError("a QueryDaemon instance runs once")
        self._n_queries = n_queries
        spec = self.spec
        self.loop.schedule(spec.warmup_ms + self._next_gap(), self._arrival)
        if spec.mean_event_interval_ms is not None:
            self._membership_timer = self.loop.schedule(
                float(self.workload_rng.exponential(spec.mean_event_interval_ms)),
                self._membership_tick,
            )
        if spec.flush_period_ms is not None:
            self._flush_timer = self.loop.schedule(
                spec.flush_period_ms, self._flush_tick
            )
        if spec.ring_repair_period_ms is not None and hasattr(
            self.algorithm, "repair_rings"
        ):
            self._repair_timer = self.loop.schedule(
                spec.ring_repair_period_ms, self._repair_tick
            )
        self.loop.run()
        if self._finished != n_queries:
            raise SimulationError(
                f"daemon drained with {self._finished}/{n_queries} queries "
                "finished"
            )
        algorithm = self.algorithm
        if drain:
            algorithm.flush_maintenance(seed=self.algo_rng)
        jobs = self.jobs
        arrivals = np.array([job.arrival_ms for job in jobs])
        starts = np.array([job.start_ms for job in jobs])
        makespan = self.makespan_ms = self.loop.now
        if makespan > 0:
            self.queue_depth_time_avg = float(np.sum(starts - arrivals)) / makespan
            self.in_flight_probes_time_avg = self._flight_area / makespan
        flight_times = np.concatenate([np.zeros(0), *self._flight_bp_times])
        flight_deltas = np.concatenate(
            [np.zeros(0, dtype=np.int64), *self._flight_bp_deltas]
        )
        order = np.argsort(flight_times, kind="stable")
        self.in_flight_probes_max = int(
            np.cumsum(flight_deltas[order]).max(initial=0)
        )
        self.maintenance_by_event = algorithm.maintenance_by_event[
            self._ledger_start[0]:
        ]
        self.maintenance_background_probes = (
            algorithm.maintenance_background_probes - self._ledger_start[1]
        )
        tracer = self.tracer
        if tracer is not None:
            algorithm._flush_observer = None
            metrics = self.metrics = tracer.metrics
            # The load gauges add no hot-path work: a query waits from
            # its arrival to its start (the +1 and -1 of one that never
            # queued fall at one instant and cancel), and the in-flight
            # breakpoints are the ones the peak was read from.
            metrics.gauge("queue_depth").extend(
                np.concatenate([arrivals, starts]),
                np.repeat(np.array([1, -1], dtype=np.int64), len(jobs)),
            )
            metrics.gauge("in_flight_probes").extend(flight_times, flight_deltas)
            self.spans = tracer.sorted_spans()
        # A finished daemon outlives its run (it is the record), so it
        # lets go of the breakpoints it no longer needs.
        self._flight_bp_times.clear()
        self._flight_bp_deltas.clear()
        return self

    # -- arrivals and admission --------------------------------------------

    def _next_gap(self) -> float:
        return float(
            self.workload_rng.exponential(self.spec.mean_interarrival_ms)
        )

    def _arrival(self) -> None:
        wrng = self.workload_rng
        target = int(wrng.choice(self.targets))
        live = self.algorithm.members
        entry = int(wrng.choice(live))
        job = QueryJob(
            index=self._arrived,
            target=target,
            entry=entry,
            arrival_ms=self.loop.now,
        )
        self._arrived += 1
        self.jobs.append(job)
        if self._arrived < self._n_queries:
            self.loop.schedule(self._next_gap(), self._arrival)
        self._admit(job)

    def _admit(self, job: QueryJob) -> None:
        if self._in_service[job.entry] < self.spec.per_node_concurrency:
            self._start(job)
        else:
            self._fifo.setdefault(job.entry, deque()).append(job)
            self._queued += 1
            if self._queued > self.queue_depth_max:
                self.queue_depth_max = self._queued

    def _start(self, job: QueryJob) -> None:
        self._in_service[job.entry] += 1
        job.start_ms = self.loop.now
        job.epoch = self.memberships.n_epochs - 1
        job.membership_size = int(self.algorithm.members.size)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("queue_wait", job.index, job.arrival_ms, job.start_ms)
            tracer.emit(
                "dispatch",
                job.index,
                job.start_ms,
                job.start_ms,
                entry=job.entry,
                target=job.target,
                membership_size=job.membership_size,
                epoch=job.epoch,
            )
        job.plan = self.algorithm.query_plan(job.target, seed=self.algo_rng)
        self._advance(job)

    # -- plan driving ------------------------------------------------------

    def _advance(self, job: QueryJob) -> None:
        """Resume the plan; schedule the next round or finish the job."""
        tracer = self.tracer
        if tracer is not None:
            # The job's previous phase (round or retry gap) ends exactly
            # when this driver event fires — a loop timestamp, so the
            # per-query spans tile [arrival, finish] by construction.
            tracer.close(job.index, self.loop.now)
        mask = job._pending_mask
        job._pending_mask = None
        try:
            batch = job.plan.send(mask)
        except StopIteration as stop:
            result = stop.value
            if not result.answered:
                self._schedule_retry(job, result)
                return
            self._finish(job, result)
            return
        job.rounds += 1
        if not batch:
            if tracer is not None:
                tracer.open(
                    job.index,
                    "probe_round",
                    self.loop.now,
                    probes=0,
                    round=job.rounds,
                    attempt=job.retries,
                )
            # A round with nothing to measure resumes on the next loop turn.
            self.loop.schedule(0.0, self._advance, job)
            return
        self._dispatch_round(job, batch)

    def _dispatch_round(self, job: QueryJob, batch: ProbeRound) -> None:
        """Issue one probe round; resume the plan when its slowest probe lands.

        Each probe completes after the RTT it measured — zero under
        ``zero_delay`` — plus, when the spec charges the coordination hop,
        the entry->prober dispatch RTT.  With no fault model (or an inert
        one) those are the completion delays: no extra draw, no changed
        event.  With faults active the round runs through
        :meth:`~repro.netsim.network.Network.apply_faults` on the job's
        private fault stream: each delay becomes the answer's arrival
        (after losses, retransmit waits and relay detours) or its timeout
        exhaustion, the answered mask waits on the job for the plan's
        resume, and the fault counts are billed to the job.
        """
        spec = self.spec
        if spec.zero_delay:
            delays = np.zeros(len(batch))
        else:
            delays = batch.rtts_ms
            if spec.charge_dispatch:
                delays = delays + self.network.path_rtts(job.entry, batch.srcs)
        stats = None
        fault_model = self.fault_model
        if fault_model is not None and fault_model.active:
            if job._fault_rng is None:
                job._fault_rng = np.random.default_rng(
                    (*self.fault_key, job.index)
                )
            delays, job._pending_mask, stats = self.network.apply_faults(
                job._fault_rng, batch.srcs, batch.dsts, delays
            )
            job.probe_drops += int(stats["dropped"])
            job.probe_retransmits += int(stats["retransmitted"])
            job.probe_timeouts += int(stats["timed_out"])
            job.relayed_probes += int(stats["relayed"])
        now = self.loop.now
        tracer = self.tracer
        if tracer is not None:
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
            # Open-ended: the span closes when the plan actually resumes,
            # so retransmit ladders and relay detours are inside it.
            tracer.open(job.index, "probe_round", now, **attrs)
        k = delays.size
        self._flight_area += float(delays.sum())
        self._flight_bp_times.append(np.array([now]))
        self._flight_bp_deltas.append(np.array([k]))
        self._flight_bp_times.append(now + delays)
        self._flight_bp_deltas.append(np.full(k, -1))
        self.loop.schedule(float(delays.max()), self._advance, job)

    # -- whole-plan retry (fault path) ---------------------------------------

    def _schedule_retry(self, job: QueryJob, result: SearchResult) -> None:
        """A plan attempt heard nothing back: retry it, or fail the query.

        The ``k``-th retry waits ``query_retry_ms * query_retry_backoff **
        (k - 1)`` — long enough for a scheduled outage to end.  If it would
        start at or after the query's deadline it does not start: the
        query finishes failed now, with the no-answer result and no retry
        gap opened.  Either way the failed attempt's probes were really
        sent (and really timed out), so its probe/aux bills stay on the
        query's final result.
        """
        faults = self.spec.faults
        delay = faults.query_retry_ms * faults.query_retry_backoff ** job.retries
        if self.loop.now + delay >= job.arrival_ms + faults.deadline_ms:
            self._finish(job, result)
            return
        job._carry_probes += result.probes
        job._carry_aux += result.aux_probes
        job.retries += 1
        if self.tracer is not None:
            self.tracer.open(
                job.index, "plan_retry", self.loop.now, attempt=job.retries
            )
        self.loop.schedule(delay, self._retry, job)

    def _retry(self, job: QueryJob) -> None:
        """Restart the job with a fresh plan (new randomness per attempt)."""
        job.plan = self.algorithm.query_plan(job.target, seed=self.algo_rng)
        job._pending_mask = None
        self._advance(job)

    def _finish(self, job: QueryJob, result: SearchResult) -> None:
        if job._carry_probes or job._carry_aux:
            result = SearchResult(
                target=result.target,
                found=result.found,
                found_latency_ms=result.found_latency_ms,
                probes=result.probes + job._carry_probes,
                aux_probes=result.aux_probes + job._carry_aux,
                hops=result.hops,
                path=result.path,
            )
        job.finish_ms = self.loop.now
        job.result = result
        if self.tracer is not None:
            self.tracer.root(
                job.index,
                job.arrival_ms,
                job.finish_ms,
                entry=job.entry,
                target=job.target,
                rounds=job.rounds,
                retries=job.retries,
                probes=int(result.probes),
                found=int(result.found),
            )
        self._finished += 1
        # Release the entry slot; admit the node's next queued query.
        self._in_service[job.entry] -= 1
        fifo = self._fifo.get(job.entry)
        if fifo:
            self._queued -= 1
            self._start(fifo.popleft())
        if self._finished == self._n_queries:
            self._shutdown()

    def _shutdown(self) -> None:
        """Cancel the periodic timers so the loop can drain."""
        for timer in (
            self._membership_timer,
            self._flush_timer,
            self._repair_timer,
        ):
            if timer is not None:
                self.loop.cancel(timer)

    # -- background processes ----------------------------------------------

    def _observe_flush(self, event_ids, probes, kind) -> None:
        """Deferred-maintenance hook (installed only when tracing).

        The algorithm calls this from inside ``flush_maintenance`` /
        ``touch_region`` after the ledger is charged, so the span carries
        exactly the event ids the flush retired (or, for a partial
        refresh, touched) and the probes it spent.
        """
        now = self.loop.now
        self.tracer.maintenance(
            now,
            now,
            event_ids=[int(i) for i in event_ids],
            probes=int(probes),
            kind=str(kind),
        )

    def _trace_eager_maintenance(
        self, ids_before: int, arriving: list[int], departing: list[int]
    ) -> None:
        """Emit spans for maintenance billed eagerly by one membership event.

        Deferred disciplines bill at flush time instead; their spans come
        through :meth:`_observe_flush`, so nothing is emitted here and
        nothing is double-counted.
        """
        ledger = self.algorithm.maintenance_ledger
        n_after = ledger.n_events
        if (
            n_after <= ids_before
            or self.algorithm.maintenance_discipline != "eager"
        ):
            return
        now = self.loop.now
        self.tracer.maintenance(
            now,
            now,
            event_ids=list(range(ids_before, n_after)),
            probes=ledger.billed_between(ids_before, n_after),
            kind="eager",
            arriving=len(arriving),
            departing=len(departing),
        )

    def _membership_tick(self) -> None:
        spec = self.spec
        wrng = self.workload_rng
        algorithm = self.algorithm
        tracer = self.tracer
        ids_before = (
            algorithm.maintenance_ledger.n_events if tracer is not None else 0
        )
        current = algorithm.members
        headroom = max(0, current.size - spec.min_members)
        departing = self._expired(headroom) if self._expiries else []
        n_departures = int(wrng.poisson(spec.departure_rate))
        n_departures = min(n_departures, headroom - len(departing))
        if n_departures > 0:
            pool = current[~np.isin(current, departing)] if departing else current
            departing += [
                int(x)
                for x in wrng.choice(pool, size=n_departures, replace=False)
            ]
        if departing:
            algorithm.leave(np.asarray(departing, dtype=int), seed=self.algo_rng)
            self.standby.extend(departing)
            for node in departing:
                self._session_due.pop(node, None)
        n_arrivals = min(int(wrng.poisson(spec.arrival_rate)), len(self.standby))
        arriving: list[int] = []
        if n_arrivals > 0:
            picks = wrng.choice(len(self.standby), size=n_arrivals, replace=False)
            arriving = [self.standby[int(i)] for i in picks]
            for index in sorted((int(i) for i in picks), reverse=True):
                del self.standby[index]
            algorithm.join(np.asarray(arriving, dtype=int), seed=self.algo_rng)
            if spec.session_length_ms is not None:
                lifetimes = wrng.exponential(
                    spec.session_length_ms, size=n_arrivals
                )
                for node, life in zip(arriving, lifetimes):
                    self._open_session(node, float(life))
        if departing or arriving:
            self.memberships.append_event(arriving, departing)
            self.n_events += (1 if departing else 0) + (1 if arriving else 0)
        if tracer is not None:
            self._trace_eager_maintenance(ids_before, arriving, departing)
        self._membership_timer = self.loop.schedule(
            float(wrng.exponential(spec.mean_event_interval_ms)),
            self._membership_tick,
        )

    # -- session timers ----------------------------------------------------

    def _open_session(self, node: int, remaining_ms: float) -> None:
        due = self.loop.now + remaining_ms
        self._session_due[node] = due
        heapq.heappush(self._expiries, (due, node))

    def _expired(self, headroom: int) -> list[int]:
        """Pop the sessions due by now; return at most ``headroom`` of them.

        Entries whose node left since (or left and rejoined on a new
        session) are stale and dropped.  Expiries the membership floor
        blocks go back on the heap, so they retry at the next tick.
        """
        now = self.loop.now
        heap = self._expiries
        due: list[tuple[float, int]] = []
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)
            if self._session_due.get(entry[1]) == entry[0]:
                due.append(entry)
        for entry in due[headroom:]:
            heapq.heappush(heap, entry)
        return [node for _, node in due[:headroom]]

    def open_sessions(self) -> dict[int, float]:
        """Remaining lifetime (ms) of each open session; <= 0 is overdue."""
        now = self.loop.now
        return {node: due - now for node, due in self._session_due.items()}

    def _flush_tick(self) -> None:
        if self.algorithm.has_pending_maintenance:
            self.algorithm.flush_maintenance(seed=self.algo_rng)
            self.forced_flushes += 1
        self._flush_timer = self.loop.schedule(
            self.spec.flush_period_ms, self._flush_tick
        )

    def _repair_tick(self) -> None:
        """One Meridian ring-repair pass; its probes bill as background."""
        repaired, spent = self.algorithm.repair_rings(seed=self.algo_rng)
        self.ring_repair_passes += 1
        self.ring_repair_nodes += int(repaired)
        self.ring_repair_probes += int(spent)
        self._repair_timer = self.loop.schedule(
            self.spec.ring_repair_period_ms, self._repair_tick
        )
