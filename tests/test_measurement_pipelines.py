"""Tests for the Section 3.1 / 3.2 measurement pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.azureus_pipeline import AzureusStudy, _largest_within_factor
from repro.measurement.dns_pipeline import DnsStudy, DnsStudyConfig
from repro.topology.internet import InternetConfig, SyntheticInternet


@pytest.fixture(scope="module")
def study_internet():
    """A mid-size Internet shared by the pipeline tests."""
    config = InternetConfig(
        n_isps=4,
        pops_per_isp_low=3,
        pops_per_isp_high=5,
        en_per_pop_low=12,
        en_per_pop_high=60,
        dns_probability_campus=0.8,
    )
    return SyntheticInternet.generate(config, seed=77)


class TestDnsStudy:
    @pytest.fixture(scope="class")
    def result(self, study_internet):
        return DnsStudy(study_internet, seed=7).run()

    def test_pairs_produced(self, result):
        assert len(result.measurements) > 50
        assert result.servers_traced > 50
        assert result.clusters_found > 3

    def test_prediction_measures_positive(self, result):
        values = result.prediction_measures()
        assert np.all(values > 0)

    def test_same_domain_pairs_excluded_from_measurements(self, result):
        assert all(not m.same_domain for m in result.measurements)

    def test_filters_counted(self, result):
        # With additive ping noise some legs must come out negative.
        assert result.pairs_discarded_negative > 0

    def test_hops_filter_respected(self, result):
        config = DnsStudyConfig()
        for m in result.measurements:
            assert max(m.hops_a, m.hops_b) <= config.max_hops_from_common

    def test_predicted_filter_respected(self, result):
        for m in result.measurements:
            assert m.predicted_ms <= DnsStudyConfig().max_predicted_ms

    def test_intra_much_smaller_than_inter(self, result):
        intra = np.median(result.intra_domain_predicted_10)
        inter = np.median(result.inter_domain_predicted_10)
        assert inter > 3 * intra

    def test_fig4_bins_available(self, result):
        bins = result.fig4_bins()
        assert bins.centers.size >= 2


class TestLargestWithinFactor:
    def test_known_case(self):
        latencies = np.array([1.0, 1.2, 1.4, 5.0, 5.5])
        keep = _largest_within_factor(latencies, 1.5)
        assert sorted(latencies[keep].tolist()) == [1.0, 1.2, 1.4]

    def test_all_within(self):
        latencies = np.array([2.0, 2.5, 3.0])
        keep = _largest_within_factor(latencies, 1.5)
        assert keep.size == 3

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=1,
            max_size=40,
        )
    )
    def test_window_property(self, values):
        latencies = np.asarray(values)
        keep = _largest_within_factor(latencies, 1.5)
        kept = latencies[keep]
        assert kept.size >= 1
        assert kept.max() <= 1.5 * kept.min() + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=2,
            max_size=25,
        )
    )
    def test_maximality_vs_brute_force(self, values):
        latencies = np.asarray(values)
        keep = _largest_within_factor(latencies, 1.5)
        # Brute force: try every element as the window floor.
        best = max(
            int(np.count_nonzero((latencies >= lo) & (latencies <= 1.5 * lo)))
            for lo in latencies
        )
        assert keep.size == best


class TestAzureusStudy:
    @pytest.fixture(scope="class")
    def result(self, study_internet):
        return AzureusStudy(study_internet, seed=11).run()

    def test_retention_filters_applied(self, result):
        assert 0 < result.peers_retained <= result.peers_responsive
        assert result.peers_responsive <= result.peers_total

    def test_clusters_share_hub(self, result, study_internet):
        for cluster in result.unpruned_clusters[:10]:
            assert cluster.size >= 2
            assert cluster.hub_router_id >= 0

    def test_pruned_clusters_satisfy_band(self, result):
        for cluster in result.pruned_clusters:
            latencies = np.asarray(cluster.latencies())
            assert latencies.max() <= 1.5 * latencies.min() + 1e-9

    def test_pruned_subset_of_unpruned(self, result):
        unpruned = {c.hub_router_id: set(c.peer_ids) for c in result.unpruned_clusters}
        for cluster in result.pruned_clusters:
            assert set(cluster.peer_ids) <= unpruned[cluster.hub_router_id]

    def test_cumulative_counts_monotone(self, result):
        points = result.cumulative_peer_count_by_size(pruned=True)
        counts = [c for _s, c in points]
        assert counts == sorted(counts)

    def test_top_clusters_ordering(self, result):
        top = result.top_clusters(5)
        sizes = [c.size for c in top]
        assert sizes == sorted(sizes, reverse=True)

    def test_hub_latencies_positive(self, result):
        for cluster in result.pruned_clusters:
            assert all(v > 0 for v in cluster.latencies())
