"""Tests for Vivaldi and GNP coordinate systems."""

import numpy as np
import pytest

from repro.algorithms import VivaldiGreedySearch
from repro.coords.errors import embedding_error_stats
from repro.coords.gnp import GnpConfig, GnpEmbedding
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.topology.oracle import MatrixOracle
from repro.util.errors import DataError


@pytest.fixture(scope="module")
def euclidean_world():
    """A perfectly embeddable 2-D world: coordinates must recover it."""
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 100, size=(60, 2))
    diff = points[:, None, :] - points[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(matrix, 0.0)
    return MatrixOracle(matrix + 1e-9 * (1 - np.eye(60)))


def sample_pairs(n, count, seed=0):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < count:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((int(a), int(b)))
    return sorted(pairs)


class TestVivaldi:
    def test_converges_on_euclidean_data(self, euclidean_world):
        system = VivaldiSystem(
            np.arange(60), VivaldiConfig(dimensions=2, use_height=False), seed=1
        )
        system.run(euclidean_world, rounds=40, neighbors_per_round=8)
        stats = embedding_error_stats(
            sample_pairs(60, 200),
            system.coordinate_distance,
            euclidean_world.latency_ms,
        )
        assert stats.median_relative_error < 0.15

    def test_observe_reduces_single_pair_error(self, euclidean_world):
        system = VivaldiSystem(np.arange(60), seed=2)
        rtt = euclidean_world.latency_ms(0, 1)
        for _ in range(50):
            system.observe(0, 1, rtt)
            system.observe(1, 0, rtt)
        assert system.coordinate_distance(0, 1) == pytest.approx(rtt, rel=0.2)

    def test_zero_rtt_ignored(self):
        system = VivaldiSystem([0, 1], seed=0)
        before = system.positions.copy()
        system.observe(0, 1, 0.0)
        assert np.allclose(system.positions, before)

    def test_unknown_node_rejected(self):
        system = VivaldiSystem([0, 1], seed=0)
        with pytest.raises(DataError):
            system.coordinate_distance(0, 99)

    def test_place_external(self, euclidean_world):
        system = VivaldiSystem(
            np.arange(60), VivaldiConfig(dimensions=2, use_height=False), seed=3
        )
        system.run(euclidean_world, rounds=30)
        # Place a phantom node at the position of node 0.
        rtts = {m: euclidean_world.latency_ms(0, m) for m in range(1, 12)}
        position, _height = system.place_external(rtts, iterations=200)
        error = np.linalg.norm(position - system.positions[0])
        spread = np.linalg.norm(system.positions.std(axis=0))
        assert error < spread  # lands near node 0's coordinate

    def test_place_external_empty_rejected(self):
        system = VivaldiSystem([0, 1], seed=0)
        with pytest.raises(DataError):
            system.place_external({})

    def test_needs_two_nodes(self):
        with pytest.raises(DataError):
            VivaldiSystem([0], seed=0)

    @pytest.mark.parametrize("n_members", [2, 3, 4, 6, 7])
    def test_populations_below_the_partner_count_run(
        self, euclidean_world, n_members
    ):
        """Fewer members than ``neighbors_per_round`` sample every member."""
        members = np.arange(n_members)
        system = VivaldiSystem(members, seed=4)
        system.run(euclidean_world, rounds=3, neighbors_per_round=8)
        assert system.samples_processed > 0
        search = VivaldiGreedySearch()
        search.build(euclidean_world, members, seed=4)
        assert search.query(30, seed=4).found in members


class TestGnp:
    def test_low_error_on_euclidean_data(self, euclidean_world):
        embedding = GnpEmbedding.build(
            euclidean_world.latency_block,
            np.arange(60),
            GnpConfig(dimensions=2, n_landmarks=8),
            seed=1,
        )
        stats = embedding_error_stats(
            sample_pairs(60, 200, seed=1),
            embedding.coordinate_distance,
            euclidean_world.latency_ms,
        )
        assert stats.median_relative_error < 0.1

    def test_place_external_near_original(self, euclidean_world):
        embedding = GnpEmbedding.build(
            euclidean_world.latency_block,
            np.arange(60),
            GnpConfig(dimensions=2, n_landmarks=8),
            seed=1,
        )
        rtts = np.array(
            [
                euclidean_world.latency_ms(0, int(lm))
                for lm in embedding.landmark_ids
            ]
        )
        position = embedding.place_external(rtts)
        predicted = np.linalg.norm(position - embedding.position(5))
        actual = euclidean_world.latency_ms(0, 5)
        assert predicted == pytest.approx(actual, rel=0.35)

    def test_landmarks_exceed_dimensions(self):
        with pytest.raises(DataError):
            GnpConfig(dimensions=8, n_landmarks=8)

    def test_population_must_cover_landmarks(self, euclidean_world):
        with pytest.raises(DataError):
            GnpEmbedding.build(
                euclidean_world.latency_block,
                np.arange(5),
                GnpConfig(dimensions=2, n_landmarks=8),
            )

    def test_unknown_node_rejected(self, euclidean_world):
        embedding = GnpEmbedding.build(
            euclidean_world.latency_block,
            np.arange(30),
            GnpConfig(dimensions=2, n_landmarks=6),
            seed=0,
        )
        with pytest.raises(DataError):
            embedding.position(500)


class TestClusterBlindness:
    def test_cluster_coordinates_collapse(self, clustered_world):
        """Section 2.2: within a cluster, coordinates carry ~no information;
        the relative error over intra-cluster pairs stays high."""
        world = clustered_world
        members = np.arange(world.topology.n_nodes)
        system = VivaldiSystem(members, VivaldiConfig(dimensions=3), seed=4)
        system.run(world.oracle, rounds=25, neighbors_per_round=8)

        cluster0 = world.topology.hosts_in_cluster(0)
        pairs = [
            (int(a), int(b))
            for i, a in enumerate(cluster0[:20])
            for b in cluster0[i + 1 : 20]
            if not world.topology.same_end_network(int(a), int(b))
        ]
        intra = embedding_error_stats(
            pairs, system.coordinate_distance, world.oracle.latency_ms
        )
        far_pairs = sample_pairs(world.topology.n_nodes, 200, seed=9)
        global_stats = embedding_error_stats(
            far_pairs, system.coordinate_distance, world.oracle.latency_ms
        )
        # Global embedding is usable; intra-cluster is much worse.
        assert intra.median_relative_error > 1.5 * global_stats.median_relative_error
