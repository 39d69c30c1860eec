"""Integration tests: every experiment driver runs and its shape checks hold.

Figures 3-7, 10, 11 and Table 1 run at default scale (shared caches make
this cheap); the Meridian sweeps (Figs 8, 9) run at a reduced scale with
only their most robust claims asserted.
"""

import pytest

from repro.algorithms.meridian_search import MeridianSearch
from repro.experiments import (
    fig3_prediction_cdf,
    fig4_prediction_bins,
    fig5_intra_inter,
    fig6_cluster_sizes,
    fig7_intra_cluster,
    fig10_ucl_hops,
    fig11_prefix_rates,
    table1_vantage,
)
from repro.experiments.config import ExperimentScale
from repro.harness import QueryEngine, SamplingSpec

SCALE = ExperimentScale()  # default seed => shared across this module


class TestMeasurementFigures:
    @pytest.mark.parametrize(
        "module",
        [
            table1_vantage,
            fig3_prediction_cdf,
            fig4_prediction_bins,
            fig5_intra_inter,
            fig6_cluster_sizes,
            fig7_intra_cluster,
            fig10_ucl_hops,
            fig11_prefix_rates,
        ],
        ids=lambda m: m.__name__.rsplit(".", 1)[-1],
    )
    def test_runs_and_shapes_hold(self, module):
        result = module.run(SCALE)
        assert result.render()
        assert result.comparisons()
        for check in result.shape_checks():
            assert check.evaluate(), f"{check.experiment}: {check.claim}"


def meridian_trial(world, n_targets, n_queries, seed):
    """One Section 4 trial: a Meridian overlay over the non-target hosts."""
    return QueryEngine().run_world_trial(
        world,
        MeridianSearch(),
        sampling=SamplingSpec(n_targets=n_targets),
        n_queries=n_queries,
        seed=seed,
    )


class TestMeridianFigures:
    def test_fig8_collapse_reduced_scale(self):
        """The robust Fig 8 claim at small scale: accuracy at 25 EN/cluster
        clearly beats accuracy at 250."""
        from repro.experiments.config import FIG8_CLUSTER_COUNTS
        from repro.latency.builder import build_clustered_oracle
        from repro.topology.clustered import ClusteredConfig

        rates = {}
        for en in (25, 250):
            world = build_clustered_oracle(
                ClusteredConfig(
                    n_clusters=FIG8_CLUSTER_COUNTS[en],
                    end_networks_per_cluster=en,
                    delta=0.2,
                ),
                seed=17,
            )
            trial = meridian_trial(world, n_targets=60, n_queries=250, seed=17)
            rates[en] = trial.exact_rate
        assert rates[25] > 2 * rates[250]

    def test_fig9_delta_improvement_reduced_scale(self):
        from repro.latency.builder import build_clustered_oracle
        from repro.topology.clustered import ClusteredConfig

        rates = {}
        for delta in (0.0, 1.0):
            world = build_clustered_oracle(
                ClusteredConfig(
                    n_clusters=8, end_networks_per_cluster=60, delta=delta
                ),
                seed=23,
            )
            trial = meridian_trial(world, n_targets=60, n_queries=250, seed=23)
            rates[delta] = trial.exact_rate
        assert rates[1.0] > rates[0.0]


class TestScaleConfig:
    def test_paper_scale_factory(self):
        paper = ExperimentScale.paper()
        assert paper.paper_scale
        assert paper.meridian_queries == 5000
        assert paper.meridian_seeds == 3
