"""The query engine: one trial loop for the whole repository.

The engine owns the lifecycle every experiment/benchmark used to hand-roll:
build a world, sample members and targets, build a
:class:`~repro.algorithms.base.NearestPeerAlgorithm`, run a query batch,
score it with the vectorised matrix slice, and aggregate across trials —
optionally fanning independent trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Three query protocols cover the repo's workloads (see
:mod:`repro.harness.scenario`): ``sampled`` reproduces the Meridian
Section 4 batch (targets drawn with replacement, one rng threaded through
build and queries), ``per-target`` reproduces the head-to-head
comparison (each target once, per-target query seeds, schemes sharing one
noisy oracle so they face identical measurement error), and ``daemon``
runs the simulated-time service (:meth:`QueryEngine.run_daemon_trial` —
Poisson arrivals, per-node concurrency caps, membership events with
session expiry and continuous ring repair on one event loop, producing a
:class:`~repro.harness.results.DaemonTrialRecord` whose headline metric
is time to answer).  The daemon is the one membership engine: churn
workloads are zero-delay daemon scenarios, and long-running service mode
is a daemon scenario with phases — one built algorithm, one daemon per
phase, one record per phase.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.harness.results import DaemonTrialRecord, ScenarioResult, TrialRecord
from repro.harness.scenario import (
    DaemonSpec,
    NoiseSpec,
    SamplingSpec,
    Scenario,
    check_member_floor,
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

        A phased scenario yields one record per phase per world seed
        (phases of one seed are consecutive, tagged by ``record.phase``).
        """
        seeds = scenario.world_seeds()
        if self.workers > 1 and len(seeds) > 1:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(seeds))
            ) as pool:
                outputs = list(
                    pool.map(
                        _run_world_task,
                        [scenario] * len(seeds),
                        [algorithm_factory] * len(seeds),
                        seeds,
                    )
                )
        else:
            outputs = [
                _run_world_task(scenario, algorithm_factory, seed)
                for seed in seeds
            ]
        records = [record for batch in outputs for record in batch]
        return ScenarioResult(scenario=scenario, records=records)

    def run_trial(
        self,
        scenario: Scenario,
        algorithm_factory: AlgorithmFactory,
        world_seed: int,
    ) -> TrialRecord:
        """Build one world from the scenario and run one trial on it."""
        if scenario.phases is not None:
            raise ConfigurationError(
                "a phased scenario produces one record per phase; use "
                "run_scenario()"
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
    ) -> TrialRecord:
        """One static-membership trial on a pre-built world.

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
        query_targets, results = self._run_batch(
            algorithm,
            world,
            members,
            targets,
            protocol=protocol,
            n_queries=n_queries,
            rng=rng,
            build_seed=seed,
            probe_oracle=probe_oracle,
        )
        return self._record(
            world, members, query_targets, results, algorithm.name, seed
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
        if scenario.phases is not None:
            raise ConfigurationError(
                "compare() does not support phased (service-mode) scenarios; "
                "run each scheme through run_scenario() instead"
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
            query_targets, results = self._run_batch(
                algorithm,
                world,
                members,
                targets,
                protocol=scenario.protocol,
                n_queries=scenario.n_queries,
                rng=make_rng(scheme_seed),
                build_seed=scenario.seed,
                probe_oracle=probe_oracle,
            )
            records.append(
                self._record(
                    world, members, query_targets, results,
                    algorithm.name, scenario.seed,
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
    ) -> tuple[np.ndarray, list]:
        """Build the algorithm and run one static query batch.

        ``sampled`` threads ``rng`` through build and queries, drawing each
        query's target just before firing it (the Meridian Section 4
        discipline); ``per-target`` builds from ``build_seed`` and queries
        each target once with the target id as its seed.
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
        else:
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        return query_targets, results

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

        The workload stream (arrivals, targets, entry nodes, membership
        draws) is split off the trial rng *first*, so one integer seed
        replays the whole run and every scheme compared under the same
        seed faces the identical load no matter how much randomness its
        own build and maintenance consume.  Queries are scored against
        the membership alive when they entered service
        (:func:`score_epochs` over the daemon's epoch log).

        ``spec.faults`` attaches the broken-network layer: the fault
        model is built — and every per-query fault outcome later drawn —
        from a *dedicated* stream keyed off ``spec.faults.seed`` (falling
        back to the trial seed), so enabling faults never perturbs the
        workload or algorithm draws and all schemes under one seed face
        the identical broken network.  ``max_sim_ms`` arms the event
        loop's livelock guard for fault runs that might fail to converge.
        """
        if spec is None:
            raise ConfigurationError("the daemon protocol requires a DaemonSpec")
        (record,) = self._run_daemon(
            world,
            algorithm,
            [(None, spec, n_queries)],
            sampling=sampling,
            seed=seed,
            noise=noise,
            probe_oracle=probe_oracle,
            max_sim_ms=max_sim_ms,
        )
        return record

    def _run_daemon(
        self,
        world: ClusteredWorld,
        algorithm: NearestPeerAlgorithm,
        phases: Sequence[tuple[str | None, DaemonSpec, int]],
        *,
        sampling: SamplingSpec,
        seed: int | np.random.Generator | None,
        noise: NoiseSpec | None = None,
        probe_oracle: LatencyOracle | None = None,
        max_sim_ms: float | None = None,
    ) -> list[DaemonTrialRecord]:
        """Build once, then run one daemon per ``(name, spec, n_queries)``.

        A single unnamed phase is :meth:`run_daemon_trial`.  Named phases
        are service mode: every phase after the first restarts *warm* on
        the same algorithm (no rebuild), inheriting the standby pool, the
        open session timers (as remaining lifetimes) and the workload and
        algorithm streams, and each drains its buffered maintenance at the
        end so its record's ledger slice holds its whole bill.  The first
        phase's spec sets the initial membership split.
        """
        from repro.service.daemon import QueryDaemon

        rng = make_rng(seed)
        targets = sampling.sample(world, rng)
        members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
        for _, spec, _ in phases:
            check_member_floor(spec, members.size)
        if probe_oracle is None and noise is not None:
            probe_oracle = noise.wrap(world.oracle, seed)
        workload_rng = np.random.default_rng(int(rng.integers(2**63)))
        first = phases[0][1]
        n_initial = int(round(first.initial_fraction * members.size))
        n_initial = min(members.size, max(first.min_members, n_initial))
        shuffled = workload_rng.permutation(members)
        live = np.sort(shuffled[:n_initial])
        standby = shuffled[n_initial:].tolist()
        algorithm.build(world.oracle, live, seed=rng, probe_oracle=probe_oracle)
        world_seed = int(seed) if isinstance(seed, (int, np.integer)) else None
        sessions = None
        records = []
        for index, (name, spec, n_queries) in enumerate(phases):
            fault_model = None
            fault_key = None
            deadline_ms = float("inf")
            if spec.faults is not None:
                faults = spec.faults
                base = faults.seed
                if base is None:
                    base = world_seed if world_seed is not None else 0
                fault_model = faults.build_model(
                    world.topology.host_cluster,
                    np.random.default_rng((base, 977001)),
                )
                # Later phases get their own per-job fault streams.
                fault_key = (base, 977002) + ((index,) if index else ())
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
                sessions=sessions,
            )
            run = daemon.run(
                n_queries, max_sim_ms=max_sim_ms, drain=name is not None
            )
            standby, sessions = daemon.standby, daemon.open_sessions()
            records.append(
                self._daemon_record(
                    world, run, algorithm.name, world_seed, spec, deadline_ms, name
                )
            )
        return records

    def _daemon_record(
        self,
        world: ClusteredWorld,
        run,
        scheme: str,
        world_seed: int | None,
        spec: DaemonSpec,
        deadline_ms: float,
        phase: str | None,
    ) -> DaemonTrialRecord:
        """Score one daemon run against its epoch log and record it."""
        jobs = run.jobs
        query_targets = np.array([job.target for job in jobs], dtype=int)
        found = np.array([job.result.found for job in jobs], dtype=int)
        exact_hit, cluster_hit = score_epochs(
            world.topology,
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
            scheme=scheme,
            world_seed=world_seed,
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
            membership_size=np.array(
                [job.membership_size for job in jobs], dtype=int
            ),
            n_churn_events=run.n_events,
            phase=phase,
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
    ) -> TrialRecord:
        found = np.array([r.found for r in results], dtype=int)
        exact_hit, cluster_hit = score_batch(
            world.topology,
            members,
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
        )


def _run_world_task(
    scenario: Scenario, algorithm_factory: AlgorithmFactory, seed: int
) -> list[TrialRecord]:
    """One world's records (picklable entry point for the process pool).

    A phased scenario yields one record per phase; every other scenario
    yields one record.
    """
    engine = QueryEngine(workers=1)
    if scenario.phases is None:
        return [engine.run_trial(scenario, algorithm_factory, seed)]
    world = build_clustered_oracle(
        scenario.topology, seed=seed, core_pool_size=scenario.core_pool_size
    )
    return engine._run_daemon(
        world,
        algorithm_factory(),
        [(p.name, p.daemon, p.n_queries) for p in scenario.phases],
        sampling=scenario.sampling,
        seed=seed,
        noise=scenario.noise,
    )
