"""Tests for the Section 4 Meridian trial: ``MeridianSearch`` on the harness."""

import pytest

from repro.algorithms.meridian_search import MeridianSearch
from repro.harness import QueryEngine, SamplingSpec
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig
from repro.util.errors import ConfigurationError


def meridian_trial(world, n_targets, n_queries, seed):
    return QueryEngine().run_world_trial(
        world,
        MeridianSearch(),
        sampling=SamplingSpec(n_targets=n_targets),
        n_queries=n_queries,
        seed=seed,
    )


class TestSimulator:
    def test_trial_metrics_consistent(self):
        world = build_clustered_oracle(
            ClusteredConfig(n_clusters=4, end_networks_per_cluster=8), seed=3
        )
        trial = meridian_trial(world, n_targets=10, n_queries=60, seed=3)
        assert trial.n_queries == 60
        assert 0.0 <= trial.exact_rate <= 1.0
        assert trial.exact_rate <= trial.cluster_rate + 1e-9
        assert trial.mean_probes_per_query > 0

    def test_targets_must_fit_population(self):
        world = build_clustered_oracle(
            ClusteredConfig(n_clusters=2, end_networks_per_cluster=3), seed=3
        )
        with pytest.raises(ConfigurationError):
            meridian_trial(world, n_targets=1000, n_queries=5, seed=0)

    def test_cluster_size_degradation_trend(self):
        """Fig 8's collapse, in miniature: accuracy at 8 EN/cluster beats
        accuracy at 64 EN/cluster."""
        small = build_clustered_oracle(
            ClusteredConfig(n_clusters=8, end_networks_per_cluster=8), seed=5
        )
        large = build_clustered_oracle(
            ClusteredConfig(n_clusters=1, end_networks_per_cluster=64), seed=5
        )
        trial_small = meridian_trial(small, n_targets=30, n_queries=150, seed=5)
        trial_large = meridian_trial(large, n_targets=30, n_queries=150, seed=5)
        assert trial_small.exact_rate > trial_large.exact_rate
