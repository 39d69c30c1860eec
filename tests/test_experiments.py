"""Integration tests: every experiment driver runs, its shape checks hold,
and its numbers match the golden values.

Figures 3-7, 10, 11 and Table 1 run at default scale (shared caches make
this cheap); the Meridian sweeps (Figs 8, 9) run at a reduced scale with
only their most robust claims asserted.  Every run is also compared by
value against ``tests/golden/paper_results.json``: each comparison's
measured value and each result's raw series (CDF samples, bin
percentiles, cluster memberships, error rates, per-query trial arrays).
Integers and strings must match exactly; floats may differ by at most
``FLOAT_RTOL`` relative, as in ``tests/test_daemon_golden.py``.

Regenerate (only for a deliberate, documented re-baseline) with::

    PYTHONPATH=src python tests/test_experiments.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
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
from repro.experiments.config import FIG8_CLUSTER_COUNTS, ExperimentScale
from repro.harness import QueryEngine, SamplingSpec
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig

SCALE = ExperimentScale()  # default seed => shared across this module

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_results.json"
FLOAT_RTOL = 1e-9

MEASUREMENT_MODULES = [
    table1_vantage,
    fig3_prediction_cdf,
    fig4_prediction_bins,
    fig5_intra_inter,
    fig6_cluster_sizes,
    fig7_intra_cluster,
    fig10_ucl_hops,
    fig11_prefix_rates,
]


def short_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


CASES = [short_name(m) for m in MEASUREMENT_MODULES] + [
    "fig8_reduced",
    "fig9_reduced",
]


# -- snapshots ---------------------------------------------------------------


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _bins(bins) -> dict:
    return {
        "centers": _floats(bins.centers),
        "counts": _ints(bins.counts),
        "percentiles": {
            str(p): _floats(series) for p, series in sorted(bins.percentiles.items())
        },
    }


def _cluster(cluster) -> dict:
    return {
        "hub_router_id": int(cluster.hub_router_id),
        "peer_ids": _ints(cluster.peer_ids),
        "latencies": _floats(cluster.latencies()),
    }


def _series(result) -> dict:
    """A measurement result's raw series as plain JSON values."""
    if isinstance(result, table1_vantage.Table1Result):
        return {
            "continents": sorted(result.continents),
            "max_pairwise_distance_ms": float(result.max_pairwise_distance_ms),
            "vantage_hosts_placed": int(result.vantage_hosts_placed),
        }
    if isinstance(result, fig3_prediction_cdf.Fig3Result):
        return {
            "prediction_measures": _floats(result.prediction_measures),
            "n_pairs": int(result.n_pairs),
            "fraction_within_half_to_two": float(result.fraction_within_half_to_two),
            "median": float(result.median),
        }
    if isinstance(result, fig4_prediction_bins.Fig4Result):
        return {"bins": _bins(result.bins)}
    if isinstance(result, fig5_intra_inter.Fig5Result):
        return {
            name: _floats(getattr(result, name))
            for name in (
                "intra_domain_predicted_5",
                "intra_domain_predicted_10",
                "inter_domain_predicted_10",
                "inter_domain_measured_10",
            )
        }
    if isinstance(result, fig6_cluster_sizes.Fig6Result):
        study = result.study
        return {
            "peers_total": int(study.peers_total),
            "peers_responsive": int(study.peers_responsive),
            "peers_retained": int(study.peers_retained),
            "unpruned_clusters": [_cluster(c) for c in study.unpruned_clusters],
            "pruned_clusters": [_cluster(c) for c in study.pruned_clusters],
        }
    if isinstance(result, fig7_intra_cluster.Fig7Result):
        return {"clusters": [_cluster(c) for c in result.clusters]}
    if isinstance(result, fig10_ucl_hops.Fig10Result):
        return {"bins": _bins(result.bins), "n_pairs": int(result.n_pairs)}
    if isinstance(result, fig11_prefix_rates.Fig11Result):
        return {
            "rates": [
                {
                    "prefix_length": int(r.prefix_length),
                    "median_false_positive_rate": float(r.median_false_positive_rate),
                    "median_false_negative_rate": float(r.median_false_negative_rate),
                    "peers_evaluated": int(r.peers_evaluated),
                    "peers_with_close_peer": int(r.peers_with_close_peer),
                }
                for r in result.rates
            ]
        }
    raise TypeError(f"no snapshot for {type(result).__name__}")


def snapshot(result) -> dict:
    """Every comparison's measured value plus the result's raw series."""
    return {
        "measured": [c.measured_value for c in result.comparisons()],
        "series": _series(result),
    }


def trial_snapshot(trial) -> dict:
    """The per-query arrays and rates of one reduced-scale Meridian trial."""
    return {
        "targets": _ints(trial.targets),
        "found": _ints(trial.found),
        "probes": _ints(trial.probes),
        "exact_hit": _ints(trial.exact_hit),
        "cluster_hit": _ints(trial.cluster_hit),
        "found_latency_ms": _floats(trial.found_latency_ms),
        "exact_rate": float(trial.exact_rate),
        "cluster_rate": float(trial.cluster_rate),
    }


def assert_matches(got, expected, where: str) -> None:
    """Ints and strings exact, floats to ``FLOAT_RTOL``, recursively."""
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), where
        for key, value in expected.items():
            assert_matches(got[key], value, f"{where}.{key}")
    elif isinstance(expected, list) and any(isinstance(v, float) for v in expected):
        np.testing.assert_allclose(
            got, expected, rtol=FLOAT_RTOL, atol=0.0, err_msg=where
        )
    elif isinstance(expected, float):
        np.testing.assert_allclose(
            got, expected, rtol=FLOAT_RTOL, atol=0.0, err_msg=where
        )
    elif isinstance(expected, list) and any(isinstance(v, (dict, list)) for v in expected):
        assert len(got) == len(expected), where
        for index, (g, e) in enumerate(zip(got, expected)):
            assert_matches(g, e, f"{where}[{index}]")
    else:
        assert got == expected, where


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


class TestMeasurementFigures:
    @pytest.mark.parametrize("module", MEASUREMENT_MODULES, ids=short_name)
    def test_runs_and_shapes_hold(self, module, golden):
        result = module.run(SCALE)
        assert result.render()
        assert result.comparisons()
        for check in result.shape_checks():
            assert check.evaluate(), f"{check.experiment}: {check.claim}"
        name = short_name(module)
        assert_matches(snapshot(result), golden[name], name)


def meridian_trial(world, n_targets, n_queries, seed):
    """One Section 4 trial: a Meridian overlay over the non-target hosts."""
    return QueryEngine().run_world_trial(
        world,
        MeridianSearch(),
        sampling=SamplingSpec(n_targets=n_targets),
        n_queries=n_queries,
        seed=seed,
    )


def fig8_trials() -> dict:
    """Fig 8 at small scale: 25 vs 250 end-networks per cluster."""
    trials = {}
    for en in (25, 250):
        world = build_clustered_oracle(
            ClusteredConfig(
                n_clusters=FIG8_CLUSTER_COUNTS[en],
                end_networks_per_cluster=en,
                delta=0.2,
            ),
            seed=17,
        )
        trials[en] = meridian_trial(world, n_targets=60, n_queries=250, seed=17)
    return trials


def fig9_trials() -> dict:
    """Fig 9 at small scale: delta 0.0 vs 1.0."""
    trials = {}
    for delta in (0.0, 1.0):
        world = build_clustered_oracle(
            ClusteredConfig(n_clusters=8, end_networks_per_cluster=60, delta=delta),
            seed=23,
        )
        trials[delta] = meridian_trial(world, n_targets=60, n_queries=250, seed=23)
    return trials


def trials_snapshot(trials: dict) -> dict:
    return {str(key): trial_snapshot(trial) for key, trial in trials.items()}


class TestMeridianFigures:
    def test_fig8_collapse_reduced_scale(self, golden):
        """The robust Fig 8 claim at small scale: accuracy at 25 EN/cluster
        clearly beats accuracy at 250."""
        trials = fig8_trials()
        assert trials[25].exact_rate > 2 * trials[250].exact_rate
        assert_matches(trials_snapshot(trials), golden["fig8_reduced"], "fig8_reduced")

    def test_fig9_delta_improvement_reduced_scale(self, golden):
        trials = fig9_trials()
        assert trials[1.0].exact_rate > trials[0.0].exact_rate
        assert_matches(trials_snapshot(trials), golden["fig9_reduced"], "fig9_reduced")


class TestScaleConfig:
    def test_paper_scale_factory(self):
        paper = ExperimentScale.paper()
        assert paper.paper_scale
        assert paper.meridian_queries == 5000
        assert paper.meridian_seeds == 3


def _write() -> None:
    # One case per top-level key and one field per line keeps re-baseline
    # diffs readable.
    cases = {short_name(m): snapshot(m.run(SCALE)) for m in MEASUREMENT_MODULES}
    cases["fig8_reduced"] = trials_snapshot(fig8_trials())
    cases["fig9_reduced"] = trials_snapshot(fig9_trials())
    blocks = []
    for case in sorted(cases):
        fields = cases[case]
        body = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(fields[name])}"
            for name in sorted(fields)
        )
        blocks.append(f"{json.dumps(case)}: {{\n{body}\n}}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_experiments.py --write")
    _write()
