"""Assemble full inter-peer latency oracles per the paper's Section 4 recipe.

This is the one-stop constructor the Meridian experiments use: given the
cluster parameters, it generates a synthetic Meridian-like core, samples
cluster-hubs from it, builds the :class:`ClusteredTopology`, and returns a
dense :class:`MatrixOracle` plus the topology (for ground truth).

For populations where a dense matrix is unaffordable (n=1,000,000 peers
would need an 8 TB array), :func:`build_sparse_clustered_world` replays
the exact same draw sequence but serves latencies straight from the
topology's O(1)-per-pair path model — same world, no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.latency.matrix import LatencyMatrix
from repro.latency.synthetic import SyntheticCoreConfig, sample_hub_latencies, synthetic_core_matrix
from repro.topology.clustered import ClusteredConfig, ClusteredTopology
from repro.topology.oracle import LatencyOracle, MatrixOracle
from repro.util.rng import make_rng


@dataclass(frozen=True)
class ClusteredWorld:
    """A clustered topology together with its latency oracle.

    ``matrix`` is ``None`` for matrix-free (sparse) worlds, where the
    oracle is the topology itself.  Scoring never reads ``matrix``: it
    reads ground truth off the topology's cluster structure
    (:class:`~repro.topology.clustered.GroundTruthIndex`) on every world.
    """

    topology: ClusteredTopology
    oracle: LatencyOracle
    matrix: LatencyMatrix | None


#: Size of the synthetic stand-in for the Meridian DNS dataset.  The paper
#: samples cluster-hubs from a fixed ~2500-server dataset; keeping the pool
#: size fixed (not scaled with the cluster count) preserves the property
#: that sampling *many* hubs yields near-co-located "twin" hubs while
#: sampling few does not.
DEFAULT_CORE_POOL = 2000


def build_clustered_oracle(
    config: ClusteredConfig,
    seed: int | None = None,
    core_pool_size: int | None = None,
) -> ClusteredWorld:
    """Build the full Section 4 world for one simulation run.

    ``core_pool_size`` controls how many synthetic "DNS servers" the hub
    sample is drawn from (default :data:`DEFAULT_CORE_POOL`).
    """
    rng = make_rng(seed)
    pool = core_pool_size or max(DEFAULT_CORE_POOL, config.n_clusters)
    core_full = synthetic_core_matrix(
        pool, seed=rng, config=SyntheticCoreConfig(n_nodes=pool)
    )
    core = sample_hub_latencies(core_full, config.n_clusters, seed=rng)
    topology = ClusteredTopology.generate(config, core, seed=rng)
    matrix = LatencyMatrix.from_array(topology.full_matrix(), check_symmetry=False)
    return ClusteredWorld(
        topology=topology,
        oracle=MatrixOracle(matrix.values),
        matrix=matrix,
    )


def build_sparse_clustered_world(
    config: ClusteredConfig,
    seed: int | None = None,
    core_pool_size: int | None = None,
) -> ClusteredWorld:
    """Build the Section 4 world without materialising the latency matrix.

    Replays :func:`build_clustered_oracle`'s draw sequence exactly (core
    matrix, hub sample, topology), so the same seed yields the same
    world; the topology itself is the oracle — its ``latencies_from`` /
    ``latency_block`` answer batch draws from the path model in O(pairs),
    bit-identical to the dense matrix's slices.  Memory is O(n) instead
    of O(n²): the only way to hold a million-peer population.
    """
    rng = make_rng(seed)
    pool = core_pool_size or max(DEFAULT_CORE_POOL, config.n_clusters)
    core_full = synthetic_core_matrix(
        pool, seed=rng, config=SyntheticCoreConfig(n_nodes=pool)
    )
    core = sample_hub_latencies(core_full, config.n_clusters, seed=rng)
    topology = ClusteredTopology.generate(config, core, seed=rng)
    return ClusteredWorld(topology=topology, oracle=topology, matrix=None)
