"""Tests for the nearest-peer algorithm zoo behind the common interface."""

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
from repro.algorithms.base import NearestPeerAlgorithm, probe_round
from repro.topology.oracle import MatrixOracle, NoisyOracle
from repro.util.errors import ConfigurationError, DataError

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

#: (scheme, member count) pairs whose ``build`` raises ``DataError``: a
#: Meridian overlay and a Vivaldi system need two members, and PIC one
#: per landmark (12 by default).
TOO_SMALL_TO_BUILD = {
    (MeridianSearch, 1),
    (PicSearch, 1),
    (PicSearch, 2),
    (VivaldiGreedySearch, 1),
}


@pytest.fixture(scope="module")
def benign_setup(uniform_matrix):
    oracle = MatrixOracle(uniform_matrix)
    n = uniform_matrix.shape[0]
    members = np.arange(n - 20)
    targets = np.arange(n - 20, n)
    return oracle, members, targets, uniform_matrix


class TestInterfaceContract:
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_query_before_build_rejected(self, algorithm_class):
        with pytest.raises(ConfigurationError):
            algorithm_class().query(0)

    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_query_returns_member_and_counts_probes(
        self, algorithm_class, benign_setup
    ):
        oracle, members, targets, matrix = benign_setup
        algorithm = algorithm_class()
        algorithm.build(oracle, members, seed=7)
        result = algorithm.query(int(targets[0]), seed=11)
        assert result.found in set(int(m) for m in members)
        assert result.probes >= 1
        assert result.found_latency_ms >= 0

    @pytest.mark.parametrize("n_members", [1, 2])
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_tiny_world_answers_or_rejects_at_build(
        self, algorithm_class, n_members, benign_setup
    ):
        """A one- or two-member world answers, or ``build`` says it cannot."""
        oracle, members, targets, _ = benign_setup
        members = members[:n_members]
        algorithm = algorithm_class()
        if (algorithm_class, n_members) in TOO_SMALL_TO_BUILD:
            with pytest.raises(DataError):
                algorithm.build(oracle, members, seed=7)
            return
        algorithm.build(oracle, members, seed=7)
        result = algorithm.query(int(targets[0]), seed=11)
        assert result.found in set(int(m) for m in members)
        assert result.probes >= 1

    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_deterministic_given_seeds(self, algorithm_class, benign_setup):
        oracle, members, targets, matrix = benign_setup
        a = algorithm_class()
        a.build(oracle, members, seed=7)
        b = algorithm_class()
        b.build(oracle, members, seed=7)
        ra = a.query(int(targets[1]), seed=13)
        rb = b.query(int(targets[1]), seed=13)
        assert ra.found == rb.found
        assert ra.probes == rb.probes


class _BeaconChattySearch(NearestPeerAlgorithm):
    """Toy scheme exercising the aux-probe accounting: measures two
    beacon-to-beacon latencies per query before probing the target."""

    name = "beacon-chatty"

    def _build(self, rng):
        self._anchors = self.members[:3]

    def _plan(self, target, rng):
        self.aux_probe(int(self._anchors[0]), int(self._anchors[1]))
        self.aux_probe(int(self._anchors[1]), int(self._anchors[2]))
        measured = {
            int(m): self.probe(int(m), target) for m in self._anchors
        }
        yield probe_round(list(measured), target, list(measured.values()))
        return self.result(target, measured)


class TestAuxProbeAccounting:
    def test_result_propagates_aux_probes(self, benign_setup):
        """Regression: result() used to drop aux_probes, so schemes that
        track beacon-to-beacon traffic silently reported 0."""
        oracle, members, targets, matrix = benign_setup
        algorithm = _BeaconChattySearch()
        algorithm.build(oracle, members, seed=7)
        result = algorithm.query(int(targets[0]), seed=1)
        assert result.aux_probes == 2
        assert result.probes == 3  # target probes counted separately

    def test_aux_probes_reset_between_queries(self, benign_setup):
        oracle, members, targets, matrix = benign_setup
        algorithm = _BeaconChattySearch()
        algorithm.build(oracle, members, seed=7)
        algorithm.query(int(targets[0]), seed=1)
        result = algorithm.query(int(targets[1]), seed=2)
        assert result.aux_probes == 2


class TestSearchQuality:
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS)
    def test_beats_worst_case_in_benign_space(self, algorithm_class, benign_setup):
        """Every scheme should land well below the median latency (i.e. it
        is doing better than returning a random member)."""
        oracle, members, targets, matrix = benign_setup
        algorithm = algorithm_class()
        algorithm.build(oracle, members, seed=3)
        ratios = []
        for target in targets:
            result = algorithm.query(int(target), seed=int(target))
            true_best = matrix[target, members].min()
            median = np.median(matrix[target, members])
            ratios.append(matrix[target, result.found] <= median)
        assert np.mean(ratios) >= 0.9

    def test_random_probe_budget_respected(self, benign_setup):
        oracle, members, targets, matrix = benign_setup
        algorithm = RandomProbeSearch(budget=5)
        algorithm.build(oracle, members, seed=0)
        result = algorithm.query(int(targets[0]), seed=1)
        assert result.probes == 5


class TestClusteringDegradation:
    """The paper's comparison: every latency-only scheme misses same-EN
    mates under the clustering condition at realistic probe noise."""

    @staticmethod
    def _split(world, n_targets=40, seed=0):
        """Scattered target/member split (tail slicing would excise whole
        clusters, since host ids are laid out cluster by cluster)."""
        n = world.topology.n_nodes
        rng = np.random.default_rng(seed)
        targets = rng.choice(n, size=n_targets, replace=False)
        target_set = set(int(t) for t in targets)
        members = np.array([i for i in range(n) if i not in target_set])
        return members, targets

    @pytest.mark.parametrize(
        "algorithm_class",
        [MeridianSearch, KargerRuhlSearch, TapestrySearch, TiersSearch, BeaconSearch],
    )
    def test_exact_rate_below_ceiling(self, algorithm_class, clustered_world):
        world = clustered_world
        members, targets = self._split(world, seed=1)
        noisy = NoisyOracle(world.oracle, sigma=0.05, additive_ms=0.3, seed=5)
        algorithm = algorithm_class()
        algorithm.build(world.oracle, members, seed=5, probe_oracle=noisy)
        exact = 0
        for target in targets:
            result = algorithm.query(int(target), seed=int(target))
            member_row = {int(m): world.matrix.values[target, m] for m in members}
            best = min(member_row.values())
            exact += member_row[result.found] <= best + 1e-12
        # 20 end-networks per cluster, 40 targets: a perfect scheme would
        # hit 40; latency-only schemes must miss a good share.
        assert exact <= 32

    def test_meridian_finds_cluster_but_not_en(self, clustered_world):
        world = clustered_world
        members, targets = self._split(world, seed=2)
        algorithm = MeridianSearch()
        algorithm.build(world.oracle, members, seed=6)
        cluster_hits, exact_hits = 0, 0
        for target in targets:
            result = algorithm.query(int(target), seed=int(target))
            cluster_hits += world.topology.same_cluster(result.found, int(target))
            member_row = {int(m): world.matrix.values[target, m] for m in members}
            best = min(member_row.values())
            exact_hits += member_row[result.found] <= best + 1e-12
        assert cluster_hits > exact_hits  # the paper's signature gap
