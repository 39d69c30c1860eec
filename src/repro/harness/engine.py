"""The query engine: one trial loop for the whole repository.

The engine owns the lifecycle every experiment/benchmark used to hand-roll:
build a world, sample members and targets, build a
:class:`~repro.algorithms.base.NearestPeerAlgorithm`, run a query batch,
score it with the vectorised matrix slice, and aggregate across trials —
optionally fanning independent trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Four query protocols cover the repo's workloads (see
:mod:`repro.harness.scenario`): ``sampled`` reproduces the Meridian
Section 4 batch (targets drawn with replacement, one rng threaded through
build and queries), ``per-target`` reproduces the head-to-head
comparison (each target once, per-target query seeds, schemes sharing one
noisy oracle so they face identical measurement error), ``churn``
drives the dynamic-membership lifecycle (join/leave events from a
:class:`~repro.harness.scenario.ChurnSpec` interleaved with sampled
queries on one seeded stream, scored against the membership at query
time, with per-query ``maintenance_probes`` accounting), ``service``
keeps one built algorithm alive across a sequence of churn phases
(:meth:`QueryEngine.run_service_trial` — warm restarts, one
:class:`TrialRecord` per phase, epoch history in one shared
:class:`~repro.harness.results.MembershipLog` diff log), and ``daemon``
runs the simulated-time service (:meth:`QueryEngine.run_daemon_trial` —
Poisson arrivals, per-node concurrency caps, membership events and
continuous ring repair on one event loop, producing a
:class:`~repro.harness.results.DaemonTrialRecord` whose headline metric
is time to answer).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.harness.results import (
    DaemonTrialRecord,
    MembershipLog,
    ScenarioResult,
    TrialRecord,
)
from repro.harness.scenario import (
    ChurnSpec,
    DaemonSpec,
    NoiseSpec,
    SamplingSpec,
    Scenario,
    ServicePhase,
)
from repro.harness.scoring import score_batch, score_epochs
from repro.latency.builder import ClusteredWorld, build_clustered_oracle
from repro.topology.oracle import LatencyOracle
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng, spawn_seeds

#: Anything that yields a fresh algorithm instance: the class itself, a
#: ``functools.partial`` over it, or any zero-argument callable.  Must be
#: picklable for process-pool fan-out.
AlgorithmFactory = Callable[[], NearestPeerAlgorithm]


class QueryEngine:
    """Runs scenarios: world construction, trial fan-out, batch scoring.

    ``workers > 1`` fans a scenario's independent trials out across a
    process pool (one world per task, results identical to the sequential
    path — trials share nothing but the scenario spec).
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers or 1

    # -- scenario execution ------------------------------------------------

    def run_scenario(
        self,
        scenario: Scenario,
        algorithm_factory: AlgorithmFactory,
    ) -> ScenarioResult:
        """Run every trial of ``scenario`` and collect the records.

        A ``service`` scenario yields one record per phase per world seed
        (phases of one seed are consecutive, tagged by ``record.phase``).
        """
        seeds = scenario.world_seeds()
        task = (
            _run_service_task if scenario.protocol == "service" else _run_trial_task
        )
        if self.workers > 1 and len(seeds) > 1:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(seeds))
            ) as pool:
                outputs = list(
                    pool.map(
                        task,
                        [scenario] * len(seeds),
                        [algorithm_factory] * len(seeds),
                        seeds,
                    )
                )
        else:
            outputs = [task(scenario, algorithm_factory, seed) for seed in seeds]
        if scenario.protocol == "service":
            records = [record for batch in outputs for record in batch]
        else:
            records = list(outputs)
        return ScenarioResult(scenario=scenario, records=records)

    def run_trial(
        self,
        scenario: Scenario,
        algorithm_factory: AlgorithmFactory,
        world_seed: int,
    ) -> TrialRecord:
        """Build one world from the scenario and run one trial on it."""
        if scenario.protocol == "service":
            raise ConfigurationError(
                "a service scenario produces one record per phase; use "
                "run_scenario() or run_service_trial()"
            )
        world = build_clustered_oracle(
            scenario.topology,
            seed=world_seed,
            core_pool_size=scenario.core_pool_size,
        )
        if scenario.protocol == "daemon":
            return self.run_daemon_trial(
                world,
                algorithm_factory(),
                scenario.daemon,
                sampling=scenario.sampling,
                n_queries=scenario.n_queries,
                seed=world_seed,
                noise=scenario.noise,
            )
        return self.run_world_trial(
            world,
            algorithm_factory(),
            sampling=scenario.sampling,
            protocol=scenario.protocol,
            n_queries=scenario.n_queries,
            seed=world_seed,
            noise=scenario.noise,
            churn=scenario.churn,
        )

    def run_world_trial(
        self,
        world: ClusteredWorld,
        algorithm: NearestPeerAlgorithm,
        *,
        sampling: SamplingSpec,
        protocol: str = "sampled",
        n_queries: int | None = None,
        seed: int | np.random.Generator | None = None,
        noise: NoiseSpec | None = None,
        probe_oracle: LatencyOracle | None = None,
        churn: ChurnSpec | None = None,
    ) -> TrialRecord:
        """One trial on a pre-built world (the engine's core primitive).

        ``probe_oracle`` overrides the noise spec when callers need to share
        one stateful oracle across trials (see :meth:`compare`).
        """
        if protocol == "daemon":
            raise ConfigurationError(
                "the daemon protocol carries its own spec; use "
                "run_daemon_trial() (or run_trial() on a daemon scenario)"
            )
        rng = make_rng(seed)
        targets = sampling.sample(world, rng)
        members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
        if probe_oracle is None and noise is not None:
            probe_oracle = noise.wrap(world.oracle, seed)
        query_targets, results, churn_log = self._run_batch(
            algorithm,
            world,
            members,
            targets,
            protocol=protocol,
            n_queries=n_queries,
            rng=rng,
            build_seed=seed,
            probe_oracle=probe_oracle,
            churn=churn,
        )
        return self._record(
            world, members, query_targets, results, algorithm.name, seed,
            churn_log=churn_log,
        )

    def compare(
        self,
        scenario: Scenario,
        algorithm_factories: Sequence[AlgorithmFactory],
        world: ClusteredWorld | None = None,
    ) -> list[TrialRecord]:
        """Head-to-head: every scheme on one identical world and workload.

        All schemes see the same members, the same targets in the same
        order, and (under the ``per-target`` protocol) per-target query
        seeds — common random numbers, so measured differences are scheme
        differences.  Under the ``daemon`` protocol every scheme replays
        the identical simulated-time workload — the same query arrival
        times, targets, entry nodes and membership events — so the
        resulting :class:`~repro.harness.results.DaemonTrialRecord` rows
        rank schemes by *time to answer* under one load, not just by
        probe count (see :func:`repro.analysis.compare.rank_by_time_to_answer`).

        Comparison is single-world by construction (schemes must share the
        world), so the world is built from ``scenario.seed`` directly and
        ``scenario.trials`` must be 1.  When a noise spec is set, one
        stateful noisy oracle is shared across schemes (each scheme's
        probes advance its stream, exactly as the historical benchmark
        did), so with noise the rows depend on factory order and only the
        noise-free case is reproduced solo by :meth:`run_world_trial` on a
        world built with the same seed.  Noise is measurement error, not
        workload: sharing the stream biases no scheme systematically.
        """
        if scenario.trials != 1:
            raise ConfigurationError(
                f"compare() runs one shared world but scenario "
                f"{scenario.name!r} has trials={scenario.trials}; use "
                "scenario.with_(trials=1) or run_scenario() per scheme"
            )
        if scenario.protocol == "service":
            raise ConfigurationError(
                "compare() does not support the service protocol; run each "
                "scheme through run_scenario() instead"
            )
        if world is None:
            world = build_clustered_oracle(
                scenario.topology,
                seed=scenario.seed,
                core_pool_size=scenario.core_pool_size,
            )
        if scenario.protocol == "daemon":
            # run_daemon_trial re-derives targets and the whole workload
            # stream from the scenario seed, so every scheme faces the
            # identical simulated-time load; only the noisy probe oracle
            # (when set) is shared statefully, as in the other protocols.
            probe_oracle = (
                scenario.noise.wrap(world.oracle, scenario.seed)
                if scenario.noise is not None
                else None
            )
            return [
                self.run_daemon_trial(
                    world,
                    factory(),
                    scenario.daemon,
                    sampling=scenario.sampling,
                    n_queries=scenario.n_queries,
                    seed=scenario.seed,
                    probe_oracle=probe_oracle,
                )
                for factory in algorithm_factories
            ]
        rng = make_rng(scenario.seed)
        targets = scenario.sampling.sample(world, rng)
        members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
        probe_oracle = (
            scenario.noise.wrap(world.oracle, scenario.seed)
            if scenario.noise is not None
            else None
        )
        # Every scheme gets an identically-seeded generator (fairness), on
        # a child seed so its draws don't replay the target-sampling stream.
        scheme_seed = spawn_seeds(scenario.seed, 1)[0]
        records = []
        for factory in algorithm_factories:
            algorithm = factory()
            query_targets, results, churn_log = self._run_batch(
                algorithm,
                world,
                members,
                targets,
                protocol=scenario.protocol,
                n_queries=scenario.n_queries,
                rng=make_rng(scheme_seed),
                build_seed=scenario.seed,
                probe_oracle=probe_oracle,
                churn=scenario.churn,
            )
            records.append(
                self._record(
                    world, members, query_targets, results,
                    algorithm.name, scenario.seed, churn_log=churn_log,
                )
            )
        return records

    # The measurement-driven figures run through the harness too, via the
    # process-wide study caches in :mod:`repro.harness.workloads`.

    # -- internals ---------------------------------------------------------

    def _run_batch(
        self,
        algorithm: NearestPeerAlgorithm,
        world: ClusteredWorld,
        members: np.ndarray,
        targets: np.ndarray,
        *,
        protocol: str,
        n_queries: int | None,
        rng: np.random.Generator,
        build_seed: int | np.random.Generator | None,
        probe_oracle: LatencyOracle | None,
        churn: ChurnSpec | None = None,
    ) -> tuple[np.ndarray, list, "_ChurnLog | None"]:
        """Build the algorithm and run one query batch (all protocols).

        ``sampled`` threads ``rng`` through build and queries, drawing each
        query's target just before firing it (the Meridian Section 4
        discipline); ``per-target`` builds from ``build_seed`` and queries
        each target once with the target id as its seed; ``churn`` is
        ``sampled`` with membership events interleaved between queries,
        drawn from the same ``rng`` stream (see :meth:`_run_churn_batch`).
        """
        if protocol == "sampled":
            algorithm.build(world.oracle, members, seed=rng, probe_oracle=probe_oracle)
            count = n_queries if n_queries is not None else targets.size
            # The target draws CANNOT be hoisted into one
            # ``rng.choice(targets, size=count)``: each query consumes the
            # same generator (seed=rng), so pre-drawing all targets would
            # reorder the stream and change every fixed-seed trial.  The
            # loop stays, with the per-iteration int()/indexing overhead
            # hoisted instead (verified bit-identical by regression test).
            query_targets = np.empty(count, dtype=int)
            results = []
            choice = rng.choice
            query = algorithm.query
            append = results.append
            for i in range(count):
                target = int(choice(targets))
                query_targets[i] = target
                append(query(target, seed=rng))
        elif protocol == "per-target":
            algorithm.build(
                world.oracle, members, seed=build_seed, probe_oracle=probe_oracle
            )
            query_targets = targets.astype(int)
            results = [algorithm.query(int(t), seed=int(t)) for t in query_targets]
        elif protocol == "churn":
            if churn is None:
                raise ConfigurationError("the churn protocol requires a ChurnSpec")
            return self._run_churn_batch(
                algorithm,
                world,
                members,
                targets,
                churn=churn,
                n_queries=n_queries,
                rng=rng,
                probe_oracle=probe_oracle,
            )
        else:
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        return query_targets, results, None

    def _run_churn_batch(
        self,
        algorithm: NearestPeerAlgorithm,
        world: ClusteredWorld,
        members: np.ndarray,
        targets: np.ndarray,
        *,
        churn: ChurnSpec,
        n_queries: int | None,
        rng: np.random.Generator,
        probe_oracle: LatencyOracle | None,
    ) -> tuple[np.ndarray, list, "_ChurnLog"]:
        """The churn protocol: one :class:`_ChurnSession` phase."""
        count = n_queries if n_queries is not None else targets.size
        session = _ChurnSession(
            algorithm, world, members, targets, churn, rng, probe_oracle
        )
        return session.run_phase(churn, count)

    def run_service_trial(
        self,
        world: ClusteredWorld,
        algorithm: NearestPeerAlgorithm,
        phases: Sequence["ServicePhase"],
        *,
        sampling: SamplingSpec,
        seed: int | np.random.Generator | None = None,
        noise: NoiseSpec | None = None,
        probe_oracle: LatencyOracle | None = None,
    ) -> list[TrialRecord]:
        """Long-running service mode: one live algorithm across phases.

        The algorithm is built once and then carried *warm* through the
        phase sequence — its index, membership, standby pool, session
        timers and epoch log all persist across phase boundaries, so a
        later phase starts from whatever state the previous one left
        (exactly what a deployed service restarting its workload does,
        and what a cold per-phase rebuild would hide).  Each phase runs
        its own churn dynamics (``phase.churn``), with the phase's
        ``warmup_steps`` acting as an event-only transition period, and
        yields one :class:`TrialRecord` tagged ``phase=phase.name``.
        """
        if not phases:
            raise ConfigurationError("service mode needs at least one phase")
        rng = make_rng(seed)
        targets = sampling.sample(world, rng)
        members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
        if probe_oracle is None and noise is not None:
            probe_oracle = noise.wrap(world.oracle, seed)
        session = _ChurnSession(
            algorithm, world, members, targets, phases[0].churn, rng, probe_oracle
        )
        records = []
        for phase in phases:
            query_targets, results, log = session.run_phase(
                phase.churn, phase.n_queries
            )
            records.append(
                self._record(
                    world, members, query_targets, results,
                    algorithm.name, seed, churn_log=log, phase=phase.name,
                )
            )
        return records

    def run_daemon_trial(
        self,
        world: ClusteredWorld,
        algorithm: NearestPeerAlgorithm,
        spec: "DaemonSpec",
        *,
        sampling: SamplingSpec,
        n_queries: int = 100,
        seed: int | np.random.Generator | None = None,
        noise: NoiseSpec | None = None,
        probe_oracle: LatencyOracle | None = None,
        max_sim_ms: float | None = None,
    ) -> DaemonTrialRecord:
        """Simulated-time service: one daemon run, scored and recorded.

        Mirrors the churn session's stream discipline — the workload
        stream (arrivals, targets, entry nodes, membership draws) is split
        off the trial rng *first*, so one integer seed replays the whole
        run and every scheme compared under the same seed faces the
        identical load no matter how much randomness its own build and
        maintenance consume.  Queries are scored against the membership
        alive when they entered service (:func:`score_epochs` over the
        daemon's epoch log).

        ``spec.faults`` attaches the broken-network layer: the fault
        model is built — and every per-query fault outcome later drawn —
        from a *dedicated* stream keyed off ``spec.faults.seed`` (falling
        back to the trial seed), so enabling faults never perturbs the
        workload or algorithm draws and all schemes under one seed face
        the identical broken network.  ``max_sim_ms`` arms the event
        loop's livelock guard for fault runs that might fail to converge.
        """
        from repro.service.daemon import QueryDaemon

        if spec is None:
            raise ConfigurationError("the daemon protocol requires a DaemonSpec")
        rng = make_rng(seed)
        targets = sampling.sample(world, rng)
        members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
        if probe_oracle is None and noise is not None:
            probe_oracle = noise.wrap(world.oracle, seed)
        workload_rng = np.random.default_rng(int(rng.integers(2**63)))
        n_initial = int(round(spec.initial_fraction * members.size))
        n_initial = min(members.size, max(spec.min_members, n_initial))
        shuffled = workload_rng.permutation(members)
        live = np.sort(shuffled[:n_initial])
        standby = shuffled[n_initial:].tolist()
        algorithm.build(world.oracle, live, seed=rng, probe_oracle=probe_oracle)
        fault_model = None
        fault_key = None
        deadline_ms = float("inf")
        if spec.faults is not None:
            faults = spec.faults
            base = faults.seed
            if base is None:
                base = int(seed) if isinstance(seed, (int, np.integer)) else 0
            fault_model = faults.build_model(
                world.topology.host_cluster,
                np.random.default_rng((base, 977001)),
            )
            fault_key = (base, 977002)
            deadline_ms = faults.deadline_ms
        daemon = QueryDaemon(
            algorithm,
            spec,
            targets=targets,
            workload_rng=workload_rng,
            algo_rng=rng,
            standby=standby,
            fault_model=fault_model,
            fault_key=fault_key,
        )
        run = daemon.run(n_queries, max_sim_ms=max_sim_ms)
        jobs = run.jobs
        query_targets = np.array([job.target for job in jobs], dtype=int)
        found = np.array([job.result.found for job in jobs], dtype=int)
        truth = (
            world.matrix.values if world.matrix is not None else world.topology
        )
        exact_hit, cluster_hit = score_epochs(
            truth,
            run.memberships,
            np.array([job.epoch for job in jobs], dtype=int),
            query_targets,
            found,
            host_cluster=world.topology.host_cluster,
        )
        spans = timeseries = None
        if run.spans is not None:
            from repro.obs.metrics import populate_span_histograms, sample_times

            populate_span_histograms(run.metrics, run.spans)
            timeseries = run.metrics.sample(
                sample_times(run.makespan_ms, spec.trace.sample_interval_ms)
            )
            spans = tuple(run.spans)
        return DaemonTrialRecord(
            scheme=algorithm.name,
            world_seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
            targets=query_targets,
            found=found,
            found_latency_ms=np.array(
                [job.result.found_latency_ms for job in jobs]
            ),
            probes=np.array([job.result.probes for job in jobs], dtype=int),
            aux_probes=np.array(
                [job.result.aux_probes for job in jobs], dtype=int
            ),
            hops=np.array([job.result.hops for job in jobs], dtype=int),
            exact_hit=exact_hit,
            cluster_hit=cluster_hit,
            found_hub_latency_ms=world.topology.host_hub_latency_ms[found],
            maintenance_probes=np.array(
                [job.result.maintenance_probes for job in jobs], dtype=int
            ),
            membership_size=np.array(
                [job.membership_size for job in jobs], dtype=int
            ),
            warmup_maintenance_probes=run.trailing_maintenance_probes,
            n_churn_events=run.n_events,
            maintenance_by_event=run.maintenance_by_event,
            maintenance_background_probes=run.maintenance_background_probes,
            arrival_ms=np.array([job.arrival_ms for job in jobs]),
            start_ms=np.array([job.start_ms for job in jobs]),
            finish_ms=np.array([job.finish_ms for job in jobs]),
            probe_rounds=np.array([job.rounds for job in jobs], dtype=int),
            makespan_ms=run.makespan_ms,
            queue_depth_time_avg=run.queue_depth_time_avg,
            queue_depth_max=run.queue_depth_max,
            in_flight_probes_time_avg=run.in_flight_probes_time_avg,
            in_flight_probes_max=run.in_flight_probes_max,
            ring_repair_passes=run.ring_repair_passes,
            ring_repair_nodes=run.ring_repair_nodes,
            ring_repair_probes=run.ring_repair_probes,
            forced_flushes=run.forced_flushes,
            probe_drops=np.array([job.probe_drops for job in jobs], dtype=int),
            probe_retransmits=np.array(
                [job.probe_retransmits for job in jobs], dtype=int
            ),
            probe_timeouts=np.array(
                [job.probe_timeouts for job in jobs], dtype=int
            ),
            relayed_probes=np.array(
                [job.relayed_probes for job in jobs], dtype=int
            ),
            query_retries=np.array([job.retries for job in jobs], dtype=int),
            relay_extra_ms=run.relay_extra_ms,
            deadline_ms=deadline_ms,
            loop_events=run.loop_events,
            loop_pending_at_drain=run.loop_pending_at_drain,
            loop_queue_peak=run.loop_queue_peak,
            loop_cancelled_events=run.loop_cancelled_events,
            spans=spans,
            timeseries=timeseries,
        )

    def _record(
        self,
        world: ClusteredWorld,
        members: np.ndarray,
        query_targets: np.ndarray,
        results: list,
        scheme: str,
        seed: int | np.random.Generator | None,
        churn_log: "_ChurnLog | None" = None,
        phase: str | None = None,
    ) -> TrialRecord:
        found = np.array([r.found for r in results], dtype=int)
        truth = (
            world.matrix.values if world.matrix is not None else world.topology
        )
        if churn_log is None:
            exact_hit, cluster_hit = score_batch(
                truth,
                members,
                query_targets,
                found,
                host_cluster=world.topology.host_cluster,
            )
        else:
            # Churn-aware scoring: "nearest" means nearest among the
            # members alive at query time, not the build-time set.
            exact_hit, cluster_hit = score_epochs(
                truth,
                churn_log.memberships,
                np.asarray(churn_log.epoch_of_query, dtype=int),
                query_targets,
                found,
                host_cluster=world.topology.host_cluster,
            )
        return TrialRecord(
            scheme=scheme,
            world_seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
            targets=query_targets,
            found=found,
            found_latency_ms=np.array([r.found_latency_ms for r in results]),
            probes=np.array([r.probes for r in results], dtype=int),
            aux_probes=np.array([r.aux_probes for r in results], dtype=int),
            hops=np.array([r.hops for r in results], dtype=int),
            exact_hit=exact_hit,
            cluster_hit=cluster_hit,
            found_hub_latency_ms=world.topology.host_hub_latency_ms[found],
            maintenance_probes=(
                np.asarray(churn_log.maintenance, dtype=int)
                if churn_log is not None
                else None
            ),
            membership_size=(
                np.asarray(churn_log.membership_size, dtype=int)
                if churn_log is not None
                else None
            ),
            warmup_maintenance_probes=(
                churn_log.warmup_maintenance if churn_log is not None else 0
            ),
            n_churn_events=(
                churn_log.n_events if churn_log is not None else 0
            ),
            phase=phase,
        )


@dataclass
class _ChurnLog:
    """Everything one churn phase records beyond the query results."""

    #: Diff log of membership epochs (epoch 0 = the initial build).  In
    #: service mode the same log is shared by every phase's record —
    #: ``epoch_of_query`` indices are global into it.
    memberships: MembershipLog
    #: Maintenance probes billed to each query slot (the events applied
    #: since the previous query plus any query-triggered flush).
    maintenance: list = field(default_factory=list)
    #: Index into ``memberships`` for each query.
    epoch_of_query: list = field(default_factory=list)
    #: Live membership size at each query.
    membership_size: list = field(default_factory=list)
    #: Maintenance probes spent before the phase's first query.
    warmup_maintenance: int = 0
    #: Non-empty join/leave calls applied during the phase.
    n_events: int = 0


class _ChurnSession:
    """Live dynamic-membership state, threaded across one or more phases.

    Owns everything that must survive a phase boundary in service mode:
    the built algorithm, the standby pool, the session-expiry timers, the
    event clock and the epoch diff log.  The single-phase ``churn``
    protocol is the degenerate case (one session, one phase) and its draw
    sequence is unchanged: the workload-stream split is the session's
    first draw, the initial split and build follow, and each query step
    applies events then queries exactly as before.

    The incoming ``rng`` is split into two derived streams: a *workload*
    stream (membership events and query targets) and the *algorithm*
    stream (build, maintenance and query randomness).  One integer seed
    still replays the whole session, and — because the split is the first
    draw — :meth:`QueryEngine.compare` gives every scheme the identical
    world, event sequence and target sequence (common random numbers) no
    matter how much randomness each scheme's own maintenance consumes.
    """

    def __init__(
        self,
        algorithm: NearestPeerAlgorithm,
        world: ClusteredWorld,
        members: np.ndarray,
        targets: np.ndarray,
        first_churn: ChurnSpec,
        rng: np.random.Generator,
        probe_oracle: LatencyOracle | None,
    ) -> None:
        self.algorithm = algorithm
        self.targets = targets
        self.rng = rng
        self.workload_rng = np.random.default_rng(int(rng.integers(2**63)))
        n_initial = int(round(first_churn.initial_fraction * members.size))
        n_initial = min(members.size, max(first_churn.min_members, n_initial))
        shuffled = self.workload_rng.permutation(members)
        live = np.sort(shuffled[:n_initial])
        self.standby: list[int] = shuffled[n_initial:].tolist()
        algorithm.build(world.oracle, live, seed=rng, probe_oracle=probe_oracle)
        self.memberships = MembershipLog(algorithm.members)
        #: event-step -> arrivals due to depart at that step.
        self.expiries: dict[int, list[int]] = {}
        # node -> due step of its *current* session.  Guards the expiry
        # queue against stale entries: a node that departed early (random
        # draw) and rejoined must live out its new session, not be killed
        # by the old timer.
        self.session_due: dict[int, int] = {}
        #: The event clock, in event steps; phases share it monotonically.
        self.clock = 0
        self._started = False

    def _apply_events(self, spec: ChurnSpec, step: int) -> tuple[int, int]:
        """One event step; returns (maintenance probes, events applied)."""
        algorithm = self.algorithm
        workload_rng = self.workload_rng
        spent = 0
        current = algorithm.members
        # Departures: expired sessions first, then the random draw.
        # dict.fromkeys dedups while keeping order — a stale entry
        # from an earlier session can share this due step with the
        # node's live session, and a doubled departure would put two
        # copies into standby (and eventually a double join).
        departing = [
            node
            for node in dict.fromkeys(self.expiries.pop(step, []))
            if node in current and self.session_due.get(node) == step
        ]
        n_random = int(workload_rng.poisson(spec.departure_rate))
        if n_random > 0:
            pool = current[~np.isin(current, departing)]
            n_random = min(n_random, pool.size)
            if n_random > 0:
                departing.extend(
                    int(x)
                    for x in workload_rng.choice(pool, size=n_random, replace=False)
                )
        headroom = current.size - spec.min_members
        if len(departing) > headroom:
            # The membership floor blocks some departures this step.
            # Expired sessions sit at the head of the list; any that
            # get cut off retry next step so they still expire.
            for node in departing[max(0, headroom):]:
                if self.session_due.get(node) == step:
                    self.expiries.setdefault(step + 1, []).append(node)
                    self.session_due[node] = step + 1
            departing = departing[: max(0, headroom)]
        if departing:
            spent += algorithm.leave(np.asarray(departing, dtype=int), seed=self.rng)
            self.standby.extend(departing)
            for node in departing:
                self.session_due.pop(node, None)
        # Arrivals, capped by standby supply.
        standby = self.standby
        n_arrive = min(int(workload_rng.poisson(spec.arrival_rate)), len(standby))
        arriving: list[int] = []
        if n_arrive > 0:
            picks = workload_rng.choice(len(standby), size=n_arrive, replace=False)
            arriving = [standby[int(i)] for i in picks]
            for index in sorted((int(i) for i in picks), reverse=True):
                del standby[index]
            spent += algorithm.join(np.asarray(arriving, dtype=int), seed=self.rng)
            if spec.session_length is not None:
                lifetimes = workload_rng.exponential(
                    spec.session_length, size=len(arriving)
                )
                for node, life in zip(arriving, lifetimes):
                    due = step + max(1, int(round(life)))
                    self.expiries.setdefault(due, []).append(int(node))
                    self.session_due[int(node)] = due
        if departing or n_arrive:
            self.memberships.append_event(arriving, departing)
        return spent, (1 if departing else 0) + (1 if arriving else 0)

    def run_phase(
        self, spec: ChurnSpec, count: int
    ) -> tuple[np.ndarray, list, _ChurnLog]:
        """Run one phase: warmup event steps, then event+query steps.

        Each query is preceded by ``spec.events_per_query`` event steps;
        its maintenance slot bills those events *plus* any deferred flush
        the query itself triggered, so deferred-discipline accounting
        stays on the books (eager schemes flush nothing at query time and
        are bit-identical to the historical path).  At the end of the
        phase any still-buffered maintenance is drained and billed to the
        final query slot — a coalescing window that never filled must not
        leave its events' bill off the phase's record (and, in service
        mode, must not leak into the next phase's ledger).
        """
        algorithm = self.algorithm
        log = _ChurnLog(memberships=self.memberships)
        if not self._started:
            # The historical clock convention: warmup at -w..-1, queries
            # from 0.  Later phases just continue the running clock.
            self.clock = -spec.warmup_steps
            self._started = True
        for _ in range(spec.warmup_steps):
            spent, events = self._apply_events(spec, self.clock)
            self.clock += 1
            log.warmup_maintenance += spent
            log.n_events += events
        query_targets = np.empty(count, dtype=int)
        results: list = []
        for step in range(count):
            event_spent = 0
            for _ in range(spec.events_per_query):
                spent, events = self._apply_events(spec, self.clock)
                self.clock += 1
                event_spent += spent
                log.n_events += events
            log.epoch_of_query.append(self.memberships.n_epochs - 1)
            log.membership_size.append(int(algorithm.members.size))
            target = int(self.workload_rng.choice(self.targets))
            query_targets[step] = target
            before_flush = algorithm.maintenance_probes_total
            results.append(algorithm.query(target, seed=self.rng))
            log.maintenance.append(
                event_spent + algorithm.maintenance_probes_total - before_flush
            )
        # Phase-boundary drain (a no-op for eager/lazy, whose buffers are
        # empty after a query).
        drained = algorithm.flush_maintenance(seed=self.rng)
        if drained:
            log.maintenance[-1] += drained
        return query_targets, results, log


def _run_trial_task(
    scenario: Scenario, algorithm_factory: AlgorithmFactory, seed: int
) -> TrialRecord:
    """Module-level trial entry point (picklable for the process pool)."""
    return QueryEngine(workers=1).run_trial(scenario, algorithm_factory, seed)


def _run_service_task(
    scenario: Scenario, algorithm_factory: AlgorithmFactory, seed: int
) -> list[TrialRecord]:
    """Module-level service-trial entry point (picklable, one per world)."""
    world = build_clustered_oracle(
        scenario.topology, seed=seed, core_pool_size=scenario.core_pool_size
    )
    return QueryEngine(workers=1).run_service_trial(
        world,
        algorithm_factory(),
        scenario.phases,
        sampling=scenario.sampling,
        seed=seed,
        noise=scenario.noise,
    )
