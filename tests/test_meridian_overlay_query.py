"""Tests for Meridian overlay construction and the closest-node query."""

import numpy as np
import pytest

from repro.algorithms.meridian_search import MeridianSearch
from repro.meridian.overlay import MeridianConfig, MeridianNode, MeridianOverlay
from repro.topology.oracle import CountingOracle, MatrixOracle
from repro.util.errors import ConfigurationError, DataError


def uniform_oracle(uniform_matrix):
    return MatrixOracle(uniform_matrix)


class TestMeridianConfig:
    def test_defaults_match_paper(self):
        config = MeridianConfig()
        assert config.beta == 0.5
        assert config.ring_size == 16

    def test_pool_smaller_than_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            MeridianConfig(ring_size=16, candidate_pool=8)

    def test_bad_selection_rejected(self):
        with pytest.raises(ConfigurationError):
            MeridianConfig(selection="best")

    def test_knowledge_size(self):
        config = MeridianConfig(knowledge_fraction=0.5)
        assert config.knowledge_size(101) == 50
        full = MeridianConfig(knowledge_fraction=None)
        assert full.knowledge_size(101) is None
        absolute = MeridianConfig(knowledge_sample=30)
        assert absolute.knowledge_size(101) == 30


class TestMeridianNode:
    def test_insert_respects_ring_geometry(self):
        node = MeridianNode(0, MeridianConfig())
        node.insert(1, 0.5)
        node.insert(2, 3.0)
        node.insert(3, 100.0)
        assert 1 in node.rings[0]
        assert 2 in node.rings[2]
        assert node.member_count() == 3

    def test_self_insert_rejected(self):
        node = MeridianNode(0, MeridianConfig())
        with pytest.raises(DataError):
            node.insert(0, 1.0)

    def test_members_within_band(self):
        node = MeridianNode(0, MeridianConfig())
        node.insert(1, 1.0)
        node.insert(2, 5.0)
        node.insert(3, 20.0)
        assert set(node.members_within(2.0, 10.0)) == {2}
        assert set(node.members_within(0.0, 100.0)) == {1, 2, 3}


class TestOverlayBuild:
    def test_ring_caps_respected(self, uniform_matrix):
        config = MeridianConfig(ring_size=4, candidate_pool=16)
        overlay = MeridianOverlay.build(
            MatrixOracle(uniform_matrix).latency_block,
            np.arange(80),
            config=config,
            seed=0,
        )
        for node in overlay.nodes.values():
            for ring in node.rings:
                assert len(ring) <= 4

    def test_ring_latencies_are_true(self, uniform_matrix):
        overlay = MeridianOverlay.build(
            MatrixOracle(uniform_matrix).latency_block, np.arange(40), seed=0
        )
        for node_id, node in list(overlay.nodes.items())[:5]:
            for member, latency in node.all_members().items():
                assert latency == pytest.approx(uniform_matrix[node_id, member])

    def test_too_few_members_rejected(self, uniform_matrix):
        with pytest.raises(DataError):
            MeridianOverlay.build(
                MatrixOracle(uniform_matrix).latency_block, [1], seed=0
            )

    def test_knowledge_fraction_limits_membership(self, uniform_matrix):
        full = MeridianOverlay.build(
            MatrixOracle(uniform_matrix).latency_block,
            np.arange(100),
            config=MeridianConfig(knowledge_fraction=None, candidate_pool=128),
            seed=0,
        )
        partial = MeridianOverlay.build(
            MatrixOracle(uniform_matrix).latency_block,
            np.arange(100),
            config=MeridianConfig(knowledge_fraction=0.1, candidate_pool=128),
            seed=0,
        )
        mean_full = np.mean([n.member_count() for n in full.nodes.values()])
        mean_partial = np.mean([n.member_count() for n in partial.nodes.values()])
        assert mean_partial < mean_full


class TestQuery:
    """The closest-node descent, run as :class:`MeridianSearch`."""

    def test_finds_true_nearest_in_benign_space(self, uniform_matrix):
        """With full knowledge in a uniform 2-D world, Meridian should find
        the exact nearest member for most targets."""
        oracle = MatrixOracle(uniform_matrix)
        n = uniform_matrix.shape[0]
        members = np.arange(n - 20)
        search = MeridianSearch(MeridianConfig(knowledge_fraction=None))
        search.build(oracle, members, seed=1)
        hits = 0
        for target in range(n - 20, n):
            result = search.query(target, seed=target)
            true_best = uniform_matrix[target, members].min()
            hits += uniform_matrix[target, result.found] <= 2.0 * true_best + 1e-9
        assert hits >= 16  # at least 80% within 2x of optimal

    def test_probe_counting(self, uniform_matrix):
        counting = CountingOracle(MatrixOracle(uniform_matrix))
        search = MeridianSearch()
        search.build(
            MatrixOracle(uniform_matrix), np.arange(60), seed=1,
            probe_oracle=counting,
        )
        result = search.query(70, seed=3)
        assert result.probes == counting.total_probes
        assert result.probes >= 1
        assert result.hops == len(result.path) - 1

    def test_degrades_under_clustering(self, clustered_world):
        """The paper's core claim: same-EN mates are rarely found when the
        cluster has many end-networks."""
        world = clustered_world
        n = world.topology.n_nodes
        members = np.arange(n - 30)
        search = MeridianSearch()
        search.build(world.oracle, members, seed=2)
        exact = 0
        for target in range(n - 30, n):
            result = search.query(target, seed=target)
            row = world.matrix.values[target, members]
            exact += row[result.found] <= row.min() + 1e-12
        # 20 end-networks per cluster: success well below certainty.
        assert exact < 25
