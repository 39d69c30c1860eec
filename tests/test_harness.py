"""Tests for the unified workload/query-engine layer (repro.harness)."""

import numpy as np
import pytest

from repro.algorithms import MeridianSearch, RandomProbeSearch
from repro.harness import (
    AggregateStats,
    MembershipLog,
    NoiseSpec,
    QueryEngine,
    SamplingSpec,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    score_epochs,
    score_single,
)
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig
from repro.topology.oracle import NoisyOracle
from repro.util.errors import ConfigurationError, DataError

SMALL = ClusteredConfig(n_clusters=4, end_networks_per_cluster=8, delta=0.2)


@pytest.fixture(scope="module")
def small_world():
    return build_clustered_oracle(SMALL, seed=5)


class TestScenarioRegistry:
    def test_canonical_scenarios_registered(self):
        names = list_scenarios()
        assert "paper-comparison" in names
        assert "skewed-targets" in names

    def test_get_returns_registered_spec(self):
        scenario = get_scenario("paper-comparison")
        assert scenario.protocol == "per-target"
        assert scenario.noise is not None and scenario.noise.additive_ms == 0.3

    def test_register_and_lookup_roundtrip(self):
        scenario = Scenario(name="test-roundtrip", topology=SMALL, seed=3)
        register_scenario(scenario)
        assert get_scenario("test-roundtrip") is scenario

    def test_duplicate_registration_rejected(self):
        scenario = Scenario(name="test-duplicate", topology=SMALL)
        register_scenario(scenario)
        with pytest.raises(ConfigurationError):
            register_scenario(scenario)
        register_scenario(scenario.with_(trials=2), overwrite=True)
        assert get_scenario("test-duplicate").trials == 2

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-workload")

    def test_invalid_protocol_and_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", topology=SMALL, protocol="telepathy")
        with pytest.raises(ConfigurationError):
            SamplingSpec(n_targets=5, policy="psychic")

    def test_world_seeds_are_deterministic(self):
        scenario = Scenario(name="seeds", topology=SMALL, trials=3, seed=11)
        assert scenario.world_seeds() == scenario.world_seeds()
        assert len(set(scenario.world_seeds())) == 3


class TestSampling:
    def test_uniform_targets_unique_and_in_range(self, small_world):
        rng = np.random.default_rng(1)
        targets = SamplingSpec(n_targets=10).sample(small_world, rng)
        assert targets.size == np.unique(targets).size == 10
        assert targets.min() >= 0
        assert targets.max() < small_world.topology.n_nodes

    def test_skewed_targets_favour_low_clusters(self, small_world):
        rng = np.random.default_rng(2)
        spec = SamplingSpec(n_targets=20, policy="skewed", skew=3.0)
        clusters = small_world.topology.host_cluster[spec.sample(small_world, rng)]
        uniform_clusters = small_world.topology.host_cluster[
            SamplingSpec(n_targets=20).sample(small_world, np.random.default_rng(2))
        ]
        assert clusters.mean() < uniform_clusters.mean()

    def test_single_cluster_policy(self, small_world):
        rng = np.random.default_rng(3)
        spec = SamplingSpec(n_targets=6, policy="single-cluster", cluster=2)
        targets = spec.sample(small_world, rng)
        assert (small_world.topology.host_cluster[targets] == 2).all()

    def test_oversized_target_count_rejected(self, small_world):
        with pytest.raises(ConfigurationError):
            SamplingSpec(n_targets=10_000).sample(
                small_world, np.random.default_rng(0)
            )


def _score_static(world, members, targets, found, host_cluster=None):
    """Score a static batch: one epoch of ``members``."""
    targets = np.asarray(targets)
    return score_epochs(
        world.topology, MembershipLog(members), np.zeros(targets.size, dtype=int),
        targets, found, host_cluster,
    )


class TestScoring:
    def test_vectorized_matches_scalar_reference(self, small_world):
        """The batch scorer must agree with the per-target row-scan path."""
        matrix = small_world.matrix.values
        host_cluster = small_world.topology.host_cluster
        rng = np.random.default_rng(7)
        n = small_world.topology.n_nodes
        targets = rng.choice(n, size=12, replace=False)
        members = np.setdiff1d(np.arange(n), targets)
        # Repeat targets (sampled protocol) and pick arbitrary found members.
        query_targets = rng.choice(targets, size=40)
        found = rng.choice(members, size=40)
        exact, cluster = _score_static(
            small_world, members, query_targets, found, host_cluster
        )
        for i in range(40):
            e, c = score_single(
                matrix, members, int(query_targets[i]), int(found[i]),
                host_cluster=host_cluster,
            )
            assert e == exact[i]
            assert c == cluster[i]

    def test_true_nearest_scores_exact(self, small_world):
        matrix = small_world.matrix.values
        n = small_world.topology.n_nodes
        targets = np.array([0, 5])
        members = np.setdiff1d(np.arange(n), targets)
        best = members[np.argmin(matrix[np.ix_(targets, members)], axis=1)]
        exact, cluster = _score_static(
            small_world, members, targets, best,
            small_world.topology.host_cluster,
        )
        assert exact.all()
        assert cluster.all()

    def test_empty_batch(self, small_world):
        exact, cluster = _score_static(
            small_world,
            np.arange(4),
            np.array([], dtype=int),
            np.array([], dtype=int),
        )
        assert exact.size == 0 and cluster.size == 0

    def test_no_answer_is_a_miss(self):
        """The no-answer id -1 must not wrap around to host n-1: on a
        two-cluster world hosts n-2 and n-1 share a cluster, so reading
        ``host_cluster[-1]`` would score the miss as a cluster hit.  The
        batch scorer and the scalar reference agree."""
        world = build_clustered_oracle(
            ClusteredConfig(n_clusters=2, end_networks_per_cluster=4), seed=1
        )
        topology = world.topology
        n = topology.n_nodes
        host_cluster = topology.host_cluster
        assert host_cluster[n - 2] == host_cluster[n - 1]
        members, targets, found = np.arange(n - 1), [n - 2], [-1]
        exact, cluster = _score_static(world, members, targets, found, host_cluster)
        assert exact.tolist() == cluster.tolist() == [False]
        assert score_single(
            world.matrix.values, members, n - 2, -1, host_cluster
        ) == (False, False)

    def test_mismatched_shapes_rejected(self, small_world):
        with pytest.raises(DataError):
            score_epochs(
                small_world.topology, MembershipLog(np.arange(4)),
                np.array([0, 0]), np.array([1, 2]), np.array([3]),
            )


class TestQueryEngine:
    def test_per_target_trial_matches_hand_rolled_loop(self, small_world):
        """The engine must reproduce the historical bespoke loop exactly."""
        sampling = SamplingSpec(n_targets=10)
        noise = NoiseSpec(sigma=0.05, additive_ms=0.3)
        record = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=8),
            sampling=sampling,
            protocol="per-target",
            seed=19,
            noise=noise,
        )
        # The old-style loop, written out by hand.
        rng = np.random.default_rng(19)
        targets = rng.choice(small_world.topology.n_nodes, size=10, replace=False)
        members = np.setdiff1d(np.arange(small_world.topology.n_nodes), targets)
        noisy = NoisyOracle(small_world.oracle, sigma=0.05, additive_ms=0.3, seed=19)
        algorithm = RandomProbeSearch(budget=8)
        algorithm.build(small_world.oracle, members, seed=19, probe_oracle=noisy)
        exact = cluster = probes = 0
        for target in targets:
            result = algorithm.query(int(target), seed=int(target))
            row = small_world.matrix.values[target, members]
            exact += (
                small_world.matrix.values[target, result.found] <= row.min() + 1e-12
            )
            cluster += small_world.topology.same_cluster(result.found, int(target))
            probes += result.probes
        assert record.exact_rate == exact / 10
        assert record.cluster_rate == cluster / 10
        assert record.mean_probes_per_query == probes / 10
        assert (record.targets == targets).all()

    def test_parallel_fanout_matches_sequential(self):
        scenario = Scenario(
            name="test-fanout",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=8),
            n_queries=20,
            trials=2,
            seed=31,
        )
        sequential = QueryEngine().run_scenario(scenario, MeridianSearch)
        parallel = QueryEngine(workers=2).run_scenario(scenario, MeridianSearch)
        assert sequential.n_trials == parallel.n_trials == 2
        for a, b in zip(sequential.records, parallel.records):
            assert a.world_seed == b.world_seed
            assert (a.targets == b.targets).all()
            assert (a.found == b.found).all()
            assert (a.probes == b.probes).all()

    def test_compare_shares_world_and_targets(self, small_world):
        scenario = Scenario(
            name="test-compare",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=8),
            noise=NoiseSpec(sigma=0.05),
            protocol="per-target",
            seed=13,
        )
        records = QueryEngine().compare(
            scenario, [MeridianSearch, RandomProbeSearch], world=small_world
        )
        assert [r.scheme for r in records] == ["meridian", "random-probe"]
        assert (records[0].targets == records[1].targets).all()
        for record in records:
            assert 0.0 <= record.exact_rate <= 1.0
            assert record.mean_probes_per_query > 0

    def test_sampled_protocol_draws_from_target_pool(self, small_world):
        record = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=4),
            sampling=SamplingSpec(n_targets=5),
            protocol="sampled",
            n_queries=30,
            seed=3,
        )
        assert record.n_queries == 30
        assert np.unique(record.targets).size <= 5
        # Found members are never targets (members are the complement).
        assert not np.isin(record.found, record.targets).any()

    def test_compare_rejects_multi_trial_scenarios(self, small_world):
        """compare() runs one shared world; trials != 1 must fail loudly
        rather than silently dropping trials."""
        scenario = Scenario(
            name="test-compare-trials",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=6),
            trials=2,
        )
        with pytest.raises(ConfigurationError, match="trials=2"):
            QueryEngine().compare(scenario, [RandomProbeSearch], world=small_world)

    def test_compare_row_reproducible_via_run_world_trial(self, small_world):
        """A compare() row under the per-target protocol is exactly one
        run_world_trial on a world built from the same seed."""
        scenario = Scenario(
            name="test-compare-repro",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=8),
            protocol="per-target",
            seed=21,
        )
        record = QueryEngine().compare(
            scenario, [lambda: RandomProbeSearch(budget=6)], world=small_world
        )[0]
        solo = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=6),
            sampling=SamplingSpec(n_targets=8),
            protocol="per-target",
            seed=21,
        )
        assert (record.targets == solo.targets).all()
        assert (record.found == solo.found).all()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryEngine(workers=0)

    def test_workload_studies_are_cached_process_wide(self):
        from repro.harness import workloads

        study_a = workloads.dns_study(2008, False)
        study_b = workloads.dns_study(2008, False)
        assert study_a is study_b  # the process-wide cache, not a rebuild


class TestResults:
    def test_aggregate_stats_median_min_max(self):
        stats = AggregateStats.from_values("m", [0.3, 0.1, 0.2])
        assert stats.median == 0.2
        assert stats.minimum == 0.1
        assert stats.maximum == 0.3
        assert stats.count == 3
        assert "median" in stats.describe()

    def test_aggregate_of_nothing_rejected(self):
        with pytest.raises(DataError):
            AggregateStats.from_values("m", [])

    def test_format_trial_records_renders_all_metrics(self, small_world):
        from repro.analysis.compare import format_trial_records

        record = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=4),
            sampling=SamplingSpec(n_targets=5),
            n_queries=10,
            seed=2,
        )
        table = format_trial_records([record])
        assert "random-probe" in table
        assert "P(exact closest)" in table
        assert "aux/query" in table

    def test_scenario_result_aggregation(self):
        scenario = Scenario(
            name="test-agg",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=6),
            n_queries=10,
            trials=2,
            seed=17,
        )
        result = QueryEngine().run_scenario(
            scenario, lambda: RandomProbeSearch(budget=4)
        )
        stats = result.aggregate("exact_rate")
        assert stats.count == 2
        assert stats.minimum <= stats.median <= stats.maximum
        assert result.values("mean_probes_per_query") == [4.0, 4.0]
