"""Tests for the simulated-time query daemon and its harness front-end."""

import numpy as np
import pytest

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    RandomProbeSearch,
)
from repro.algorithms.base import NearestPeerAlgorithm, probe_round
from repro.analysis.compare import format_trial_records, rank_by_time_to_answer
from repro.harness import (
    DaemonSpec,
    DaemonTrialRecord,
    QueryEngine,
    SamplingSpec,
    Scenario,
    get_scenario,
)
from repro.latency.builder import build_clustered_oracle
from repro.service import QueryDaemon
from repro.topology.clustered import ClusteredConfig
from repro.util.errors import ConfigurationError

SMALL = ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2)


@pytest.fixture(scope="module")
def small_world():
    return build_clustered_oracle(SMALL, seed=99)


def run_daemon(world, algorithm_factory, spec, n_queries=25, seed=5):
    return QueryEngine().run_daemon_trial(
        world,
        algorithm_factory(),
        spec,
        sampling=SamplingSpec(n_targets=30),
        n_queries=n_queries,
        seed=seed,
    )


class TestDaemonBasics:
    def test_record_shape_and_timing_invariants(self, small_world):
        spec = DaemonSpec(mean_interarrival_ms=30.0, per_node_concurrency=2)
        record = run_daemon(small_world, lambda: RandomProbeSearch(budget=8), spec)
        assert isinstance(record, DaemonTrialRecord)
        assert record.n_queries == 25
        # Arrival <= start <= finish, per query.
        assert (record.queue_wait_ms >= 0).all()
        assert (record.service_time_ms > 0).all()
        assert (record.time_to_answer_ms > 0).all()
        # A round completes after its slowest probe: one-round random
        # probing answers in exactly its max per-round RTT.
        assert record.tta_median_ms > 0
        assert record.tta_median_ms <= record.tta_p95_ms <= record.tta_p99_ms
        assert record.makespan_ms >= float(record.finish_ms.max()) - float(
            record.arrival_ms.min()
        )
        assert record.mean_probe_rounds == 1.0  # single fan-out scheme
        assert record.exact_hit.shape == (25,)

    def test_same_seed_reproduces_the_timeline(self, small_world):
        spec = DaemonSpec(
            mean_interarrival_ms=20.0,
            per_node_concurrency=1,
            mean_event_interval_ms=80.0,
            arrival_rate=0.6,
            departure_rate=0.6,
            min_members=32,
        )
        a = run_daemon(small_world, MeridianSearch, spec, seed=7)
        b = run_daemon(small_world, MeridianSearch, spec, seed=7)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.found, b.found)
        assert np.array_equal(a.arrival_ms, b.arrival_ms)
        assert np.array_equal(a.start_ms, b.start_ms)
        assert np.array_equal(a.finish_ms, b.finish_ms)
        assert np.array_equal(a.maintenance_by_event, b.maintenance_by_event)
        assert a.n_churn_events == b.n_churn_events
        assert a.makespan_ms == b.makespan_ms

    def test_service_time_is_critical_path_not_probe_count(self, small_world):
        """A query's in-service time is the sum of its per-round max RTTs."""
        from repro.util.rng import make_rng

        spec = DaemonSpec(mean_interarrival_ms=10_000.0)  # effectively serial
        seed = 5
        record = run_daemon(
            small_world,
            lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
            spec,
            n_queries=10,
            seed=seed,
        )
        # Replay the engine's stream discipline on a twin and recover each
        # query's critical path by driving the plan by hand.
        rng = make_rng(seed)
        sampling = SamplingSpec(n_targets=30)
        targets = sampling.sample(small_world, rng)
        members = np.setdiff1d(np.arange(small_world.topology.n_nodes), targets)
        workload_rng = np.random.default_rng(int(rng.integers(2**63)))
        n_initial = max(
            spec.min_members, int(round(spec.initial_fraction * members.size))
        )
        shuffled = workload_rng.permutation(members)
        live = np.sort(shuffled[:n_initial])
        twin = KargerRuhlSearch(samples_per_scale=4, max_rounds=12)
        twin.build(small_world.oracle, live, seed=rng)
        workload_rng.exponential(spec.mean_interarrival_ms)  # first gap
        expected = []
        for index in range(10):
            target = int(workload_rng.choice(targets))
            workload_rng.choice(live)  # the entry-node draw
            if index < 9:
                workload_rng.exponential(spec.mean_interarrival_ms)
            plan = twin.query_plan(target, seed=rng)
            critical_path = 0.0
            try:
                while True:
                    batch = plan.send(None)
                    critical_path += max(op.rtt_ms for op in batch)
            except StopIteration:
                pass
            expected.append(critical_path)
        assert np.allclose(record.service_time_ms, np.asarray(expected))
        # The critical path is far less than the per-probe serial total.
        assert (record.service_time_ms > 0).all()

    def test_queueing_kicks_in_under_overload(self, small_world):
        overload = DaemonSpec(
            mean_interarrival_ms=1.0, per_node_concurrency=1, initial_fraction=0.2
        )
        record = run_daemon(
            small_world, lambda: RandomProbeSearch(budget=24), overload,
            n_queries=60,
        )
        assert record.queue_depth_max > 0
        assert record.queue_depth_time_avg > 0
        assert float(record.queue_wait_ms.max()) > 0
        assert record.in_flight_probes_max > 24  # overlapping fan-outs

    def test_fifo_order_and_concurrency_cap_per_entry_node(self, small_world):
        """Queries queued behind one node start in arrival order, and no
        node ever serves more than its concurrency cap at once."""
        algorithm = RandomProbeSearch(budget=24)
        members = np.arange(0, small_world.topology.n_nodes - 30)
        algorithm.build(small_world.oracle, members, seed=1)
        spec = DaemonSpec(mean_interarrival_ms=1.0, per_node_concurrency=1)
        daemon = QueryDaemon(
            algorithm,
            spec,
            targets=np.arange(
                small_world.topology.n_nodes - 30, small_world.topology.n_nodes
            ),
            workload_rng=np.random.default_rng(3),
            algo_rng=np.random.default_rng(4),
        )
        run = daemon.run(60)
        by_entry: dict[int, list] = {}
        for job in run.jobs:
            by_entry.setdefault(job.entry, []).append(job)
        queued_somewhere = False
        for jobs in by_entry.values():
            # Jobs are in arrival order; FIFO means their starts are too,
            # and cap=1 means service intervals cannot overlap.
            starts = [job.start_ms for job in jobs]
            assert starts == sorted(starts)
            for earlier, later in zip(jobs, jobs[1:]):
                assert later.start_ms >= earlier.finish_ms
                queued_somewhere |= later.queue_wait_ms > 0
        assert queued_somewhere
        assert run.queue_depth_max > 0

    def test_membership_events_and_epoch_scoring(self, small_world):
        spec = DaemonSpec(
            mean_interarrival_ms=15.0,
            mean_event_interval_ms=30.0,
            arrival_rate=1.0,
            departure_rate=1.0,
            min_members=32,
            initial_fraction=0.6,
        )
        record = run_daemon(
            small_world, lambda: RandomProbeSearch(budget=8), spec, n_queries=40
        )
        assert record.n_churn_events > 0
        assert record.membership_size is not None
        assert record.membership_size.min() >= 32
        # The index-free baseline pays nothing for maintenance.
        assert record.total_maintenance_probes == 0

    def test_maintenance_billed_on_daemon_clock(self, small_world):
        spec = DaemonSpec(
            mean_interarrival_ms=15.0,
            mean_event_interval_ms=25.0,
            arrival_rate=1.0,
            departure_rate=1.0,
            min_members=32,
        )
        record = run_daemon(
            small_world, lambda: BeaconSearch(n_beacons=6), spec, n_queries=40
        )
        assert record.n_churn_events > 0
        assert record.total_maintenance_probes > 0

    def test_flush_timer_drains_deferred_maintenance(self, small_world):
        spec = DaemonSpec(
            mean_interarrival_ms=60.0,
            mean_event_interval_ms=10.0,
            arrival_rate=1.2,
            departure_rate=1.2,
            min_members=32,
            flush_period_ms=40.0,
        )
        record = run_daemon(
            small_world,
            lambda: KargerRuhlSearch(
                samples_per_scale=4, max_rounds=12, maintenance="coalesce:512"
            ),
            spec,
            n_queries=15,
        )
        # The huge coalesce window would never fill by itself: only the
        # timer can have flushed, and each flush is a counted rebuild.
        assert record.forced_flushes > 0
        assert record.total_maintenance_probes > 0

    def test_continuous_ring_repair_runs_on_the_loop(self, small_world):
        spec = DaemonSpec(
            mean_interarrival_ms=25.0,
            mean_event_interval_ms=20.0,
            arrival_rate=0.4,
            departure_rate=1.5,  # drain: rings thin out, repair must act
            min_members=32,
            initial_fraction=0.9,
            ring_repair_period_ms=100.0,
        )
        # Leave-time repair off: the loop-scheduled continuous pass is the
        # only thing re-fattening rings, so it must do the work.
        record = run_daemon(
            small_world,
            lambda: MeridianSearch(ring_repair=False),
            spec,
            n_queries=40,
        )
        assert record.ring_repair_passes > 0
        assert record.ring_repair_probes > 0  # drained rings were re-fattened
        assert record.ring_repair_nodes > 0
        # Repair probes are maintenance and stay on the books.
        assert record.total_maintenance_probes >= record.ring_repair_probes


class _EmptyFirstRound(NearestPeerAlgorithm):
    """A stub scheme whose plan yields an empty round, then one probe."""

    name = "empty-first-round"

    def _build(self, rng: np.random.Generator) -> None:
        pass

    def _plan(self, target: int, rng: np.random.Generator):
        yield probe_round([], target, [])
        node = int(rng.choice(self.members))
        measured = {node: self.probe(node, target)}
        yield from self._offer_round([node], target, list(measured.values()))
        return self.result(target, measured)


class TestEmptyRound:
    @pytest.mark.parametrize(
        "spec",
        [DaemonSpec(mean_interarrival_ms=20.0), DaemonSpec(zero_delay=True)],
        ids=["timed", "zero-delay"],
    )
    def test_empty_round_resumes_on_the_next_loop_turn(self, small_world, spec):
        """A round with nothing to measure costs no simulated time but is
        still a round: the plan resumes and the query finishes."""
        record = run_daemon(small_world, _EmptyFirstRound, spec, n_queries=10)
        assert (record.found >= 0).all()
        assert (record.probes == 1).all()
        assert (record.probe_rounds == 2).all()


class TestZeroDelayDaemonEquivalence:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomProbeSearch(budget=8),
            lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
            MeridianSearch,
            lambda: BeaconSearch(n_beacons=6, probe_budget=8),
        ],
        ids=["random-probe", "karger-ruhl", "meridian", "beaconing"],
    )
    def test_zero_delay_daemon_matches_blocking_queries(
        self, small_world, factory
    ):
        """With instantaneous delivery the daemon serialises perfectly and
        reproduces direct ``query()`` results bit for bit."""
        from repro.util.rng import make_rng

        spec = DaemonSpec(mean_interarrival_ms=10.0, zero_delay=True)
        seed = 13
        record = run_daemon(small_world, factory, spec, n_queries=20, seed=seed)

        # Reference: replay the engine's stream discipline by hand with a
        # blocking query per arrival.
        rng = make_rng(seed)
        sampling = SamplingSpec(n_targets=30)
        targets = sampling.sample(small_world, rng)
        members = np.setdiff1d(
            np.arange(small_world.topology.n_nodes), targets
        )
        workload_rng = np.random.default_rng(int(rng.integers(2**63)))
        n_initial = max(
            spec.min_members,
            int(round(spec.initial_fraction * members.size)),
        )
        shuffled = workload_rng.permutation(members)
        live = np.sort(shuffled[:n_initial])
        algorithm = factory()
        algorithm.build(small_world.oracle, live, seed=rng)
        workload_rng.exponential(spec.mean_interarrival_ms)  # first gap
        results = []
        for index in range(20):
            target = int(workload_rng.choice(targets))
            workload_rng.choice(live)  # the entry-node draw
            if index < 19:
                workload_rng.exponential(spec.mean_interarrival_ms)
            results.append(algorithm.query(target, seed=rng))
        assert np.array_equal(
            record.targets, np.array([r.target for r in results])
        )
        assert np.array_equal(
            record.found, np.array([r.found for r in results])
        )
        assert np.array_equal(
            record.probes, np.array([r.probes for r in results])
        )
        assert np.array_equal(
            record.aux_probes, np.array([r.aux_probes for r in results])
        )
        assert np.allclose(
            record.found_latency_ms,
            np.array([r.found_latency_ms for r in results]),
        )
        # Zero delay: every query answers the instant it arrives.
        assert (record.time_to_answer_ms == 0).all()


class TestDaemonHarnessIntegration:
    def test_registered_scenarios_exist_and_validate(self):
        for name in ("daemon-steady", "daemon-flash-crowd"):
            scenario = get_scenario(name)
            assert scenario.protocol == "daemon"
            assert scenario.daemon is not None

    def test_daemon_scenario_requires_spec(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", topology=SMALL, protocol="daemon")
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad2",
                topology=SMALL,
                daemon=DaemonSpec(),  # spec without the protocol
            )

    def test_run_scenario_and_aggregate(self):
        scenario = get_scenario("daemon-steady").with_(
            n_queries=15, trials=2, daemon=DaemonSpec(mean_interarrival_ms=25.0)
        )
        result = QueryEngine().run_scenario(
            scenario, lambda: RandomProbeSearch(budget=8)
        )
        assert result.n_trials == 2
        stats = result.aggregate("tta_median_ms")
        assert stats.count == 2
        assert stats.minimum > 0

    def test_run_world_trial_rejects_daemon_protocol(self, small_world):
        with pytest.raises(ConfigurationError):
            QueryEngine().run_world_trial(
                small_world,
                RandomProbeSearch(budget=8),
                sampling=SamplingSpec(n_targets=10),
                protocol="daemon",
            )

    def test_compare_gives_common_random_numbers(self, small_world):
        scenario = get_scenario("daemon-steady").with_(n_queries=20)
        records = QueryEngine().compare(
            scenario,
            [lambda: RandomProbeSearch(budget=8), lambda: BeaconSearch(n_beacons=6)],
            world=small_world,
        )
        assert [r.scheme for r in records] == ["random-probe", "beaconing"]
        # Identical workload: same targets at the same arrival instants.
        assert np.array_equal(records[0].targets, records[1].targets)
        assert np.array_equal(records[0].arrival_ms, records[1].arrival_ms)
        ranked = rank_by_time_to_answer(records)
        assert ranked[0].tta_median_ms <= ranked[1].tta_median_ms

    def test_daemon_rejected_outside_its_protocol(self, small_world):
        engine = QueryEngine()
        with pytest.raises(ConfigurationError):
            engine.run_daemon_trial(
                small_world,
                RandomProbeSearch(budget=8),
                None,
                sampling=SamplingSpec(n_targets=10),
            )


class TestDaemonTableFormatting:
    def test_mixed_records_degrade_gracefully(self, small_world):
        daemon_record = run_daemon(
            small_world,
            lambda: RandomProbeSearch(budget=8),
            DaemonSpec(mean_interarrival_ms=30.0),
            n_queries=10,
        )
        static_record = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=8),
            sampling=SamplingSpec(n_targets=10),
            n_queries=10,
            seed=3,
        )
        table = format_trial_records([daemon_record, static_record])
        assert "tta p50 (ms)" in table
        assert "tta p99 (ms)" in table
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[3].rstrip().endswith("-")  # static row degrades to '-'
        # Static-only tables keep the historical shape.
        plain = format_trial_records([static_record])
        assert "tta p50 (ms)" not in plain

    def test_daemon_record_without_timing_arrays_degrades(self, small_world):
        """Regression: a DaemonTrialRecord built without its optional
        timing arrays must render/rank as untimed, not crash."""
        timed = run_daemon(
            small_world,
            lambda: RandomProbeSearch(budget=8),
            DaemonSpec(mean_interarrival_ms=30.0),
            n_queries=10,
        )
        import dataclasses

        untimed = dataclasses.replace(
            timed, arrival_ms=None, start_ms=None, finish_ms=None
        )
        table = format_trial_records([timed, untimed])
        assert table.splitlines()[3].rstrip().endswith("-")
        only_untimed = format_trial_records([untimed])
        assert "tta p50 (ms)" not in only_untimed
        ranked = rank_by_time_to_answer([untimed, timed])
        assert ranked == [timed, untimed]


class TestSessionExpiry:
    """Session timers on the daemon's membership process."""

    @staticmethod
    def _daemon(world, spec, sessions, standby=()):
        """A daemon over members 0..9 that logs every departure."""
        algorithm = RandomProbeSearch(budget=4)
        algorithm.build(world.oracle, np.arange(10), seed=1)
        departures = []
        leave = algorithm.leave

        def logged_leave(ids, *args, **kwargs):
            departures.append(sorted(int(x) for x in ids))
            return leave(ids, *args, **kwargs)

        algorithm.leave = logged_leave
        daemon = QueryDaemon(
            algorithm,
            spec,
            targets=np.array([world.topology.n_nodes - 1]),
            workload_rng=np.random.default_rng(3),
            algo_rng=np.random.default_rng(4),
            standby=list(standby),
            sessions=sessions,
        )
        return daemon, departures

    def test_stale_timer_does_not_remove_rejoined_node(self, small_world):
        """A node that left early and rejoined lives out its new session:
        its old timer, still queued, must not remove it."""
        spec = DaemonSpec(
            mean_interarrival_ms=1.0,
            mean_event_interval_ms=1.0,
            arrival_rate=0.0,
            departure_rate=0.0,
            min_members=2,
            warmup_ms=20.0,
            zero_delay=True,
        )
        # Control: the old session alone expires at the first tick >= 5 ms.
        daemon, departures = self._daemon(small_world, spec, {3: 5.0})
        daemon.run(1)
        assert departures == [[3]]
        # Node 3 left and rejoined on a session due at 50 ms: the state a
        # random departure plus a re-arrival leaves behind, with the old
        # 5 ms entry still on the timer heap.
        daemon, departures = self._daemon(small_world, spec, {3: 5.0})
        daemon._open_session(3, 50.0)
        daemon.run(1)
        assert 20.0 < daemon.loop.now < 50.0
        assert departures == []
        assert 3 in daemon.algorithm.members
        assert daemon.open_sessions() == {3: 50.0 - daemon.loop.now}

    def test_floor_blocked_expiry_retries_next_tick(self, small_world):
        """An expiry the membership floor blocks stays due and leaves at
        the next tick once arrivals lift the membership off the floor."""
        spec = DaemonSpec(
            mean_interarrival_ms=1.0,
            mean_event_interval_ms=1.0,
            arrival_rate=50.0,  # every standby node rejoins each tick
            departure_rate=0.0,  # only expiries depart
            min_members=9,
            warmup_ms=20.0,
            zero_delay=True,
        )
        daemon, departures = self._daemon(small_world, spec, {4: 1.0, 7: 1.0})
        daemon.run(1)
        # Ten members over a floor of nine: one of the two due sessions
        # leaves at the first tick (and rejoins from standby), the other
        # at the next.
        assert departures == [[4], [7]]
        assert daemon.n_events == 4  # two leave events, two join events
        assert daemon.open_sessions() == {}
