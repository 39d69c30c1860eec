"""Tests for the membership lifecycle API (join/leave) and churn workloads.

Covers the redesign's three guarantees:

* the lifecycle equivalence invariant — for rebuild-policy schemes the
  evolved index is history-free (a pure function of the build stream,
  the event count and the member set; event seeds contribute nothing,
  since regions rebuild from rng streams keyed on ``(build, generation,
  node)``); index-free incremental schemes answer identically to a
  fresh ``build((M ∪ J) \\ L)``, and the stateful incremental schemes
  stay within quality tolerance;
* honest maintenance accounting — join/leave return their probe bill,
  the maintenance ledger charges it to the event, and rebuild-policy
  schemes bill the full reconstruction;
* bit-identity — fixed-seed results of the static ``sampled`` /
  ``per-target`` protocols are unchanged by the redesign (golden arrays
  captured from the pre-redesign code).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    PicSearch,
    RandomProbeSearch,
    TapestrySearch,
    TiersSearch,
    VivaldiGreedySearch,
)
from repro.algorithms.base import MAINTENANCE_DISCIPLINES, MAINTENANCE_POLICIES
from repro.harness import (
    DaemonSpec,
    NoiseSpec,
    QueryEngine,
    SamplingSpec,
    Scenario,
    ServicePhase,
    get_scenario,
    list_scenarios,
    register_scenario,
    churn_spec,
    temporary_scenario,
    unregister_scenario,
)
from repro.harness.scenario import CHURN_STEP_MS
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig
from repro.topology.oracle import CountingOracle, MatrixOracle
from repro.util.errors import ConfigurationError

ALL_ALGORITHMS = [
    MeridianSearch,
    KargerRuhlSearch,
    TapestrySearch,
    PicSearch,
    VivaldiGreedySearch,
    TiersSearch,
    BeaconSearch,
    RandomProbeSearch,
]
REBUILD_ALGORITHMS = [KargerRuhlSearch, TapestrySearch]

SMALL = ClusteredConfig(n_clusters=4, end_networks_per_cluster=8, delta=0.2)


@pytest.fixture(scope="module")
def lifecycle_setup(uniform_matrix):
    """Benign world split into initial members / joiners / targets."""
    oracle = MatrixOracle(uniform_matrix)
    n = uniform_matrix.shape[0]
    initial = np.arange(90)
    joiners = np.arange(90, 120)
    leavers = np.concatenate([np.arange(0, 20), np.arange(95, 100)])
    targets = np.arange(140, n)
    return oracle, initial, joiners, leavers, targets


def _churned(algorithm_class, oracle, initial, joiners, leavers):
    algorithm = algorithm_class()
    algorithm.build(oracle, initial, seed=7)
    algorithm.join(joiners, seed=11)
    algorithm.leave(leavers, seed=13)
    return algorithm


class TestLifecycleContract:
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_join_leave_before_build_rejected(self, algorithm_class):
        with pytest.raises(ConfigurationError):
            algorithm_class().join([1, 2])
        with pytest.raises(ConfigurationError):
            algorithm_class().leave([1, 2])

    def test_declared_policies_are_valid(self):
        for algorithm_class in ALL_ALGORITHMS:
            assert algorithm_class.maintenance_policy in MAINTENANCE_POLICIES

    def test_join_existing_member_rejected(self, lifecycle_setup):
        oracle, initial, *_ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=1)
        with pytest.raises(ConfigurationError, match="already members"):
            algorithm.join([int(initial[0])])

    def test_join_out_of_range_rejected(self, lifecycle_setup):
        oracle, initial, *_ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=1)
        with pytest.raises(ConfigurationError, match="oracle range"):
            algorithm.join([oracle.n_nodes + 5])

    def test_leave_out_of_range_rejected(self, lifecycle_setup):
        oracle, initial, *_ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=1)
        with pytest.raises(ConfigurationError, match="not members"):
            algorithm.leave([oracle.n_nodes + 5])

    def test_leave_non_member_rejected(self, lifecycle_setup):
        oracle, initial, joiners, *_ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=1)
        with pytest.raises(ConfigurationError, match="not members"):
            algorithm.leave([int(joiners[0])])

    def test_leave_below_two_members_rejected(self, lifecycle_setup):
        oracle, initial, *_ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial[:3], seed=1)
        with pytest.raises(ConfigurationError, match="below 2"):
            algorithm.leave(initial[:2])

    def test_empty_events_are_noops(self, lifecycle_setup):
        oracle, initial, *_ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=1)
        assert algorithm.join([]) == 0
        assert algorithm.leave([]) == 0
        assert (algorithm.members == initial).all()

    def test_membership_evolution_order(self, lifecycle_setup):
        """Joins append (sorted); leaves preserve survivor order."""
        oracle, initial, joiners, leavers, _ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=1)
        algorithm.join(joiners, seed=2)
        expected = np.concatenate([initial, np.sort(joiners)])
        assert (algorithm.members == expected).all()
        algorithm.leave(leavers, seed=3)
        expected = expected[~np.isin(expected, leavers)]
        assert (algorithm.members == expected).all()


class TestRebuildEquivalence:
    """For rebuild-policy schemes, the evolved index is history-free."""

    @pytest.mark.parametrize("algorithm_class", REBUILD_ALGORITHMS)
    def test_rebuild_is_seed_free_and_forgets_departures(
        self, algorithm_class, lifecycle_setup
    ):
        """A rebuild is a pure function of (build stream, event count,
        member set): regions are reconstructed from rng streams keyed on
        ``(build, generation, node)``, so the seeds passed to the events
        themselves contribute nothing — which is exactly what lets
        ``lazy-partial`` refresh a single region bit-identically to a
        full flush (see TestPartialFreshness in test_scheduler.py)."""
        oracle, initial, joiners, leavers, targets = lifecycle_setup
        churned = _churned(algorithm_class, oracle, initial, joiners, leavers)
        replayed = algorithm_class()
        replayed.build(oracle, initial, seed=7)
        replayed.join(joiners, seed=101)  # different event seeds
        replayed.leave(leavers, seed=103)
        live = set(int(m) for m in churned.members)
        departed = set(int(node) for node in leavers)
        for target in targets[:10]:
            a = churned.query(int(target), seed=int(target))
            b = replayed.query(int(target), seed=int(target))
            assert a.found == b.found
            assert a.probes == b.probes
            assert a.found_latency_ms == b.found_latency_ms
            # The rebuilt index holds no trace of departed members.
            assert a.found in live
            assert not set(a.path) & departed

    @pytest.mark.parametrize("algorithm_class", REBUILD_ALGORITHMS)
    def test_rebuild_bills_full_reconstruction(
        self, algorithm_class, lifecycle_setup
    ):
        oracle, initial, joiners, leavers, _ = lifecycle_setup
        algorithm = algorithm_class()
        algorithm.build(oracle, initial, seed=7)
        grown = initial.size + joiners.size
        assert algorithm.join(joiners, seed=11) == grown * grown
        shrunk = grown - leavers.size
        assert algorithm.leave(leavers, seed=13) == shrunk * shrunk
        assert algorithm.rebuild_count == 2

    def test_index_free_incremental_equals_fresh_build(self, lifecycle_setup):
        """random-probe has no index: churned and fresh must agree exactly."""
        oracle, initial, joiners, leavers, targets = lifecycle_setup
        churned = _churned(RandomProbeSearch, oracle, initial, joiners, leavers)
        fresh = RandomProbeSearch()
        fresh.build(oracle, churned.members.copy(), seed=13)
        for target in targets[:10]:
            a = churned.query(int(target), seed=int(target))
            b = fresh.query(int(target), seed=int(target))
            assert a.found == b.found
            assert a.probes == b.probes


class TestIncrementalTolerance:
    """Stateful incremental schemes drift from a fresh build, but must
    keep answering from the live membership with comparable quality."""

    @pytest.mark.parametrize(
        "algorithm_class",
        [MeridianSearch, PicSearch, VivaldiGreedySearch, TiersSearch, BeaconSearch],
    )
    def test_churned_index_stays_accurate(
        self, algorithm_class, lifecycle_setup, uniform_matrix
    ):
        oracle, initial, joiners, leavers, targets = lifecycle_setup
        churned = _churned(algorithm_class, oracle, initial, joiners, leavers)
        members = churned.members
        hits = []
        for target in targets:
            result = churned.query(int(target), seed=int(target))
            assert result.found in set(int(m) for m in members)
            row = uniform_matrix[target, members]
            hits.append(
                uniform_matrix[target, result.found] <= np.median(row)
            )
        # The fresh-build contract is >= 0.9 (test_algorithms); a churned
        # index may drift but must stay well above random guessing (0.5).
        assert np.mean(hits) >= 0.75

    def test_pic_survives_landmark_depletion(self, lifecycle_setup):
        """Regression: a leave() that guts the landmark set below the
        embedding's dimensionality used to crash the counted rebuild when
        the surviving membership was smaller than the configured landmark
        count; it must degrade the embedding instead."""
        oracle, *_ = lifecycle_setup
        counting = CountingOracle(oracle)
        algorithm = PicSearch()
        algorithm.build(counting, np.arange(14), seed=3)
        built = counting.total_probes
        landmarks = algorithm._embedding.landmark_ids.copy()
        spent = algorithm.leave(landmarks[:9], seed=4)
        # The re-embedding billed exactly the pairs it measured.
        assert spent == counting.total_probes - built > 0
        assert algorithm.rebuild_count == 1
        result = algorithm.query(150, seed=5)
        assert result.found in set(int(m) for m in algorithm.members)

    @pytest.mark.parametrize(
        "algorithm_class",
        [MeridianSearch, PicSearch, VivaldiGreedySearch, TiersSearch, BeaconSearch],
    )
    def test_departed_members_never_returned(
        self, algorithm_class, lifecycle_setup
    ):
        oracle, initial, joiners, leavers, targets = lifecycle_setup
        churned = _churned(algorithm_class, oracle, initial, joiners, leavers)
        current = set(int(m) for m in churned.members)
        for target in targets[:8]:
            assert churned.query(int(target), seed=int(target)).found in current


class TestMaintenanceAccounting:
    def test_events_bill_the_ledger(self, lifecycle_setup):
        oracle, initial, joiners, leavers, targets = lifecycle_setup
        algorithm = BeaconSearch()
        algorithm.build(oracle, initial, seed=7)
        joined = algorithm.join(joiners, seed=11)
        left = algorithm.leave(leavers, seed=13)
        assert joined + left > 0
        assert algorithm.maintenance_by_event.tolist() == [joined, left]
        assert algorithm.maintenance_probes_total == joined + left
        # Queries add nothing to the maintenance books.
        algorithm.query(int(targets[0]), seed=1)
        algorithm.query(int(targets[1]), seed=2)
        assert algorithm.maintenance_probes_total == joined + left
        assert algorithm.maintenance_ledger.total == joined + left

    def test_random_probe_maintenance_is_free(self, lifecycle_setup):
        oracle, initial, joiners, leavers, _ = lifecycle_setup
        algorithm = RandomProbeSearch()
        algorithm.build(oracle, initial, seed=7)
        assert algorithm.join(joiners, seed=1) == 0
        assert algorithm.leave(leavers, seed=2) == 0

    def test_beacon_join_cost_is_beacons_times_arrivals(self, lifecycle_setup):
        oracle, initial, joiners, *_ = lifecycle_setup
        algorithm = BeaconSearch(n_beacons=6)
        algorithm.build(oracle, initial, seed=7)
        assert algorithm.join(joiners, seed=1) == 6 * joiners.size

    def test_query_probes_exclude_maintenance(self, lifecycle_setup):
        """Maintenance is a separate ledger from target probes."""
        oracle, initial, joiners, _, targets = lifecycle_setup
        algorithm = RandomProbeSearch(budget=9)
        algorithm.build(oracle, initial, seed=7)
        algorithm.join(joiners, seed=1)
        result = algorithm.query(int(targets[0]), seed=3)
        assert result.probes == 9
        assert algorithm.maintenance_probes_total == 0


class TestEveryBillIsMeasured:
    """Every maintenance bill equals the oracle pairs it measured."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_clustered_oracle(
            ClusteredConfig(n_clusters=4, end_networks_per_cluster=15, delta=0.2),
            seed=9,
        )

    @pytest.mark.parametrize("discipline", MAINTENANCE_DISCIPLINES)
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_bills_equal_counted_pairs(self, world, algorithm_class, discipline):
        # Only the build oracle counts: queries read the raw probe oracle,
        # so every counted pair after build() is index maintenance.
        counting = CountingOracle(world.oracle)
        n = counting.n_nodes
        algorithm = algorithm_class(maintenance=discipline)
        algorithm.build(counting, np.arange(60), seed=1, probe_oracle=world.oracle)
        built = counting.total_probes
        rng = np.random.default_rng(30)
        for step in range(30):
            members = algorithm.members
            action = int(rng.integers(3))
            if action == 0:
                pool = np.setdiff1d(np.arange(n - 20), members)
                algorithm.join(rng.choice(pool, size=2, replace=False), seed=step)
            elif action == 1 and members.size > 40:
                algorithm.leave(rng.choice(members, size=2, replace=False), seed=step)
            else:
                algorithm.query(int(rng.integers(n - 20, n)), seed=step)
        # A drain: Meridian repairs its rings, PIC loses its landmarks.
        algorithm.leave(algorithm.members[16:], seed=30)
        algorithm.query(n - 1, seed=31)
        algorithm.flush_maintenance(seed=32)
        if isinstance(algorithm, MeridianSearch):
            algorithm.repair_rings(seed=33)
        measured = counting.total_probes - built
        assert algorithm.maintenance_probes_total == measured
        assert (
            int(algorithm.maintenance_by_event.sum())
            + algorithm.maintenance_background_probes
            == measured
        )


class TestBitIdentityRegression:
    """Fixed-seed static-protocol results, pinned pre-redesign.

    The golden arrays below were produced by the harness *before* the
    lifecycle API landed; the redesign must not move a single draw."""

    @pytest.fixture(scope="class")
    def small_world(self):
        return build_clustered_oracle(SMALL, seed=5)

    def test_sampled_protocol_unchanged(self, small_world):
        record = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=6),
            sampling=SamplingSpec(n_targets=8),
            protocol="sampled",
            n_queries=25,
            seed=42,
        )
        assert record.targets.tolist() == [
            5, 5, 26, 63, 44, 38, 53, 63, 5, 38, 53, 63, 5, 62, 26, 62, 44,
            44, 5, 26, 63, 53, 62, 53, 44,
        ]
        assert record.found.tolist() == [
            7, 6, 20, 9, 28, 39, 50, 57, 8, 47, 59, 49, 49, 59, 27, 56, 43,
            42, 0, 23, 61, 58, 57, 52, 29,
        ]

    def test_per_target_protocol_unchanged(self, small_world):
        record = QueryEngine().run_world_trial(
            small_world,
            BeaconSearch(n_beacons=5, probe_budget=6),
            sampling=SamplingSpec(n_targets=10),
            protocol="per-target",
            seed=17,
            noise=NoiseSpec(sigma=0.05, additive_ms=0.3),
        )
        assert record.targets.tolist() == [47, 13, 46, 40, 33, 2, 6, 22, 9, 27]
        assert record.found.tolist() == [42, 3, 41, 41, 32, 3, 7, 23, 8, 24]
        assert record.probes.tolist() == [11] * 10

    def test_meridian_sampled_unchanged(self, small_world):
        record = QueryEngine().run_world_trial(
            small_world,
            MeridianSearch(),
            sampling=SamplingSpec(n_targets=8),
            protocol="sampled",
            n_queries=15,
            seed=9,
        )
        assert record.found.tolist() == [
            43, 51, 43, 7, 51, 51, 43, 51, 36, 43, 51, 9, 36, 9, 36,
        ]
        assert record.probes.tolist() == [
            16, 10, 5, 8, 3, 12, 7, 7, 9, 7, 13, 13, 2, 4, 3,
        ]
        # Static protocols carry no maintenance columns.
        assert not hasattr(record, "maintenance_probes")
        assert not hasattr(record, "membership_size")
        assert record.mean_maintenance_probes_per_query == 0.0


class TestChurnProtocol:
    """Churn workloads: zero-delay daemon scenarios with session expiry."""

    @pytest.fixture(scope="class")
    def churn_scenario(self):
        return Scenario(
            name="test-churn-proto",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=10),
            protocol="daemon",
            daemon=churn_spec(
                initial_fraction=0.6,
                arrival_rate=0.8,
                departure_rate=0.8,
                session_length_ms=30 * CHURN_STEP_MS,
                warmup_ms=10 * CHURN_STEP_MS,
                min_members=16,
            ),
            n_queries=60,
            seed=23,
        )

    def test_churn_requires_spec(self):
        """Churn runs on the daemon, which needs its spec; the retired
        ``churn`` and ``service`` protocol names are unknown."""
        with pytest.raises(ConfigurationError, match="DaemonSpec"):
            Scenario(name="bad-churn", topology=SMALL, protocol="daemon")
        for protocol in ("churn", "service"):
            with pytest.raises(ConfigurationError, match="unknown protocol"):
                Scenario(name="bad-churn", topology=SMALL, protocol=protocol)

    def test_churn_spec_exclusive_to_churn_protocol(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            Scenario(
                name="bad-static",
                topology=SMALL,
                protocol="sampled",
                daemon=churn_spec(),
            )

    def test_churn_spec_validation(self):
        for bad in (
            dict(arrival_rate=-1.0),
            dict(min_members=1),
            dict(initial_fraction=1.5),
            dict(session_length_ms=0.0),
            dict(warmup_ms=-1.0),
        ):
            with pytest.raises(ConfigurationError):
                DaemonSpec(**bad)

    def test_min_members_above_pool_rejected_by_scenario(self):
        """A floor above the member pool would freeze the membership
        silently; it fails when the scenario is built instead."""
        scenario = get_scenario("daemon-steady")
        pool = scenario.topology.n_peers - scenario.sampling.n_targets
        scenario.with_(daemon=replace(scenario.daemon, min_members=pool))
        with pytest.raises(ConfigurationError, match="member pool"):
            scenario.with_(daemon=replace(scenario.daemon, min_members=pool + 1))

    def test_min_members_above_pool_rejected_by_run_daemon_trial(self):
        algorithm = RandomProbeSearch(budget=8)
        with pytest.raises(ConfigurationError, match="member pool"):
            QueryEngine().run_daemon_trial(
                build_clustered_oracle(SMALL, seed=5),
                algorithm,
                DaemonSpec(min_members=500, mean_event_interval_ms=10.0),
                sampling=SamplingSpec(n_targets=10),
                seed=5,
            )
        with pytest.raises(ConfigurationError, match="not built"):
            algorithm.oracle  # rejected before the build

    def test_churn_trial_end_to_end(self, churn_scenario):
        record = QueryEngine().run_trial(
            churn_scenario, lambda: RandomProbeSearch(budget=8), 123
        )
        assert record.n_queries == 60
        assert record.maintenance_by_event.shape == (record.n_churn_events,)
        assert record.membership_size is not None
        assert record.membership_size.min() >= churn_scenario.daemon.min_members
        # The membership actually churned.
        assert np.unique(record.membership_size).size > 1
        assert 0.0 <= record.exact_rate <= 1.0
        assert 0.0 <= record.cluster_rate <= 1.0
        # Targets are never members, under any epoch.
        assert not np.isin(record.found, record.targets).any()
        # Zero delay: every query answers the instant it arrives, and the
        # warmup holds the first arrival back.
        assert (record.time_to_answer_ms == 0).all()
        assert record.arrival_ms[0] > churn_scenario.daemon.warmup_ms

    def test_churn_trial_is_deterministic(self, churn_scenario):
        run = lambda: QueryEngine().run_trial(  # noqa: E731
            churn_scenario, lambda: RandomProbeSearch(budget=8), 31
        )
        a, b = run(), run()
        assert (a.targets == b.targets).all()
        assert (a.found == b.found).all()
        assert (a.maintenance_by_event == b.maintenance_by_event).all()
        assert (a.membership_size == b.membership_size).all()
        assert a.total_maintenance_probes == b.total_maintenance_probes

    def test_churn_bills_maintenance(self, churn_scenario):
        """An index-carrying scheme must pay per event under churn, and
        the record's ledger total is the algorithm's whole maintenance
        bill, warmup included."""
        algorithm = BeaconSearch(n_beacons=5)
        record = QueryEngine().run_trial(churn_scenario, lambda: algorithm, 123)
        assert churn_scenario.daemon.warmup_ms > 0
        assert record.total_maintenance_probes > 0
        assert (
            record.total_maintenance_probes
            == algorithm.maintenance_probes_total
        )
        assert record.mean_maintenance_probes_per_query == (
            record.total_maintenance_probes / record.n_queries
        )

    def test_registered_churn_scenarios_run(self):
        """The canonical churn workloads drive the engine end-to-end."""
        for name in ("steady-churn", "flash-crowd", "mass-departure"):
            scenario = get_scenario(name)
            assert scenario.protocol == "daemon"
            assert scenario.daemon.zero_delay
            small = scenario.with_(
                topology=SMALL,
                n_queries=25,
                sampling=SamplingSpec(n_targets=10),
                daemon=replace(
                    scenario.daemon,
                    warmup_ms=min(scenario.daemon.warmup_ms, 5 * CHURN_STEP_MS),
                    min_members=16,
                ),
                trials=1,
            )
            record = QueryEngine().run_trial(
                small, lambda: RandomProbeSearch(budget=8), 7
            )
            assert record.n_queries == 25

    def test_flash_crowd_grows_and_mass_departure_shrinks(self):
        flash = get_scenario("flash-crowd").with_(
            topology=SMALL, n_queries=40, sampling=SamplingSpec(n_targets=10)
        )
        record = QueryEngine().run_trial(
            flash, lambda: RandomProbeSearch(budget=8), 3
        )
        assert record.membership_size[-1] > record.membership_size[0]
        drain = get_scenario("mass-departure").with_(
            topology=SMALL, n_queries=40, sampling=SamplingSpec(n_targets=10)
        )
        record = QueryEngine().run_trial(
            drain, lambda: RandomProbeSearch(budget=8), 3
        )
        assert record.membership_size[-1] < record.membership_size[0]

    def test_churn_scoring_uses_membership_at_query_time(self, three_host_world):
        """score_epochs judges each query against its own epoch."""
        from repro.harness import MembershipLog, score_epochs

        memberships = MembershipLog(np.array([1, 2]))
        memberships.append_event([], [1])
        targets = np.array([0, 0])
        found = np.array([2, 2])
        exact, _ = score_epochs(
            three_host_world, memberships, np.array([0, 1]), targets, found
        )
        # Node 2 is wrong while node 1 is alive, right after it left.
        assert exact.tolist() == [False, True]


EDGE_SCHEMES = pytest.mark.parametrize(
    "factory",
    [lambda: RandomProbeSearch(budget=8), MeridianSearch],
    ids=["random-probe", "meridian"],
)


class TestDegenerateEdges:
    """Valid specs at the edge of the spec space run to completion, hold
    the membership floor and keep the ledger whole."""

    FLOOR = 16

    @pytest.fixture(scope="class")
    def world(self):
        return build_clustered_oracle(SMALL, seed=7)

    def _run(self, world, factory, spec):
        algorithm = factory()
        record = QueryEngine().run_daemon_trial(
            world,
            algorithm,
            spec,
            sampling=SamplingSpec(n_targets=10),
            n_queries=40,
            seed=7,
        )
        assert record.n_queries == 40
        assert record.membership_size.min() >= spec.min_members
        assert (
            record.total_maintenance_probes
            == algorithm.maintenance_probes_total
        )
        return record

    @EDGE_SCHEMES
    def test_membership_pinned_at_floor(self, world, factory):
        spec = churn_spec(
            initial_fraction=0.0,
            arrival_rate=0.0,
            departure_rate=1.0,
            min_members=self.FLOOR,
        )
        record = self._run(world, factory, spec)
        # The floor blocks every departure and nothing arrives.
        assert (record.membership_size == self.FLOOR).all()
        assert record.n_churn_events == 0

    @EDGE_SCHEMES
    def test_floor_blocked_session_expiries(self, world, factory):
        """Sessions far shorter than a tick expire while random departures
        hold the membership at its floor; blocked expiries wait a tick."""
        spec = churn_spec(
            initial_fraction=0.0,
            arrival_rate=1.0,
            departure_rate=1.0,
            session_length_ms=20.0,
            min_members=self.FLOOR,
        )
        record = self._run(world, factory, spec)
        assert record.n_churn_events > 0
        assert record.membership_size.min() == self.FLOOR

    @EDGE_SCHEMES
    def test_service_phase_without_membership_events(self, world, factory):
        algorithms = []

        def build():
            algorithms.append(factory())
            return algorithms[-1]

        scenario = Scenario(
            name="test-quiet-phase",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=10),
            protocol="daemon",
            phases=(
                ServicePhase(
                    "churn",
                    churn_spec(
                        arrival_rate=0.8,
                        departure_rate=0.8,
                        min_members=self.FLOOR,
                    ),
                    n_queries=20,
                ),
                ServicePhase(
                    "quiet",
                    churn_spec(
                        mean_event_interval_ms=None, min_members=self.FLOOR
                    ),
                    n_queries=20,
                ),
            ),
            seed=7,
        )
        churned, quiet = QueryEngine().run_scenario(scenario, build).records
        assert churned.n_churn_events > 0
        assert quiet.n_queries == 20
        assert quiet.n_churn_events == 0
        assert quiet.maintenance_by_event.shape == (0,)
        assert np.unique(quiet.membership_size).size == 1
        assert quiet.membership_size.min() >= self.FLOOR
        (algorithm,) = algorithms
        assert (
            churned.total_maintenance_probes + quiet.total_maintenance_probes
            == algorithm.maintenance_probes_total
        )


class TestRegistryHygiene:
    def test_unregister_scenario_roundtrip(self):
        scenario = Scenario(name="test-unregister", topology=SMALL)
        register_scenario(scenario)
        assert "test-unregister" in list_scenarios()
        assert unregister_scenario("test-unregister") is scenario
        assert "test-unregister" not in list_scenarios()
        with pytest.raises(ConfigurationError):
            unregister_scenario("test-unregister")

    def test_temporary_scenario_cleans_up(self):
        scenario = Scenario(name="test-temporary", topology=SMALL)
        with temporary_scenario(scenario) as registered:
            assert registered is scenario
            assert get_scenario("test-temporary") is scenario
        assert "test-temporary" not in list_scenarios()

    def test_temporary_scenario_restores_overwritten_entry(self):
        original = Scenario(name="test-temp-overwrite", topology=SMALL)
        register_scenario(original)
        replacement = original.with_(n_queries=5)
        with temporary_scenario(replacement, overwrite=True):
            assert get_scenario("test-temp-overwrite") is replacement
        assert get_scenario("test-temp-overwrite") is original
        unregister_scenario("test-temp-overwrite")

    def test_temporary_scenario_cleans_up_on_error(self):
        scenario = Scenario(name="test-temp-error", topology=SMALL)
        with pytest.raises(RuntimeError):
            with temporary_scenario(scenario):
                raise RuntimeError("boom")
        assert "test-temp-error" not in list_scenarios()
