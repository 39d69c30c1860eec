"""Shared fixtures: small worlds reused across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency.builder import ClusteredWorld, build_clustered_oracle
from repro.topology.clustered import ClusteredConfig, ClusteredTopology
from repro.topology.internet import InternetConfig, SyntheticInternet


@pytest.fixture(scope="session")
def small_internet() -> SyntheticInternet:
    """A compact router-level Internet (seconds to build, shared)."""
    config = InternetConfig(
        n_isps=4,
        pops_per_isp_low=2,
        pops_per_isp_high=4,
        en_per_pop_low=6,
        en_per_pop_high=24,
    )
    return SyntheticInternet.generate(config, seed=1234)


@pytest.fixture(scope="session")
def clustered_world() -> ClusteredWorld:
    """A Section 4 world exhibiting the clustering condition."""
    return build_clustered_oracle(
        ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        seed=99,
    )


@pytest.fixture(scope="session")
def three_host_world() -> ClusteredTopology:
    """Host 0 and two peers: host 1 at 1.5 ms from it, host 2 at 2.5 ms.

    One cluster of three single-peer end-networks with hub latencies
    0.5, 1.0 and 2.0 ms: host 1 is host 0's nearest peer, host 2 the next.
    """
    config = ClusteredConfig(
        n_clusters=1, end_networks_per_cluster=3, peers_per_end_network=1
    )
    return ClusteredTopology(
        config,
        en_cluster=np.zeros(3, dtype=int),
        en_hub_latency_ms=np.array([0.5, 1.0, 2.0]),
        host_en=np.arange(3),
        core_ms=np.zeros((1, 1)),
    )


@pytest.fixture(scope="session")
def uniform_matrix() -> np.ndarray:
    """A latency matrix from points uniform in a 2-D square (no clusters).

    The benign geometry every latency-only algorithm is happy in.
    """
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 50.0, size=(160, 2))
    diff = points[:, None, :] - points[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(matrix, 0.0)
    return matrix
