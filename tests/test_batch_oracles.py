"""Batch-vs-scalar equivalence for the oracle contract.

Every oracle's ``latency_block`` / ``latencies_from`` must agree with the
element-wise scalar loop, bit for bit; probe accounting must be exact per
element; an oracle missing part of the contract is rejected at ``build``;
and the engine's hoisted sampled loop must be bit-identical to the
original draw-then-query sequence.
"""

import numpy as np
import pytest

from repro.algorithms import BeaconSearch, RandomProbeSearch
from repro.algorithms.base import NearestPeerAlgorithm, probe_round
from repro.harness.engine import QueryEngine
from repro.harness.scenario import SamplingSpec
from repro.latency.builder import build_clustered_oracle
from repro.latency.matrix import LatencyMatrix
from repro.measurement.dns_pipeline import DnsStudy
from repro.topology.clustered import ClusteredConfig
from repro.topology.internet import InternetConfig, SyntheticInternet
from repro.topology.oracle import CountingOracle, MatrixOracle, NoisyOracle
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(42)
    half = rng.uniform(1.0, 200.0, size=(12, 12))
    full = np.triu(half, k=1)
    full = full + full.T
    return full


@pytest.fixture(scope="module")
def small_internet():
    config = InternetConfig(
        n_isps=3,
        pops_per_isp_low=2,
        pops_per_isp_high=4,
        en_per_pop_low=4,
        en_per_pop_high=12,
    )
    return SyntheticInternet.generate(config, seed=9)


class _ScalarOnly:
    """Oracle shim exposing only ``latency_ms`` and ``n_nodes``."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def n_nodes(self):
        return self._inner.n_nodes

    def latency_ms(self, a, b):
        return self._inner.latency_ms(a, b)


def scalar_block(oracle, rows, cols):
    return np.array(
        [[oracle.latency_ms(int(a), int(b)) for b in cols] for a in rows]
    )


class TestMatrixOracleBatch:
    def test_block_matches_scalar_loop(self, matrix):
        oracle = MatrixOracle(matrix)
        rows, cols = [0, 3, 7], [1, 2, 5, 11]
        assert np.array_equal(
            oracle.latency_block(rows, cols), scalar_block(oracle, rows, cols)
        )

    def test_latencies_from_subset_and_full_row(self, matrix):
        oracle = MatrixOracle(matrix)
        assert np.array_equal(oracle.latencies_from(4), matrix[4])
        assert np.array_equal(
            oracle.latencies_from(4, np.array([1, 9])), matrix[4, [1, 9]]
        )


class TestCountingOracleBatch:
    def test_block_values_match_scalar_loop(self, matrix):
        batch = CountingOracle(MatrixOracle(matrix))
        scalar = CountingOracle(MatrixOracle(matrix))
        rows, cols = [0, 2, 5], [2, 5, 8, 0]
        assert np.array_equal(
            batch.latency_block(rows, cols), scalar_block(scalar, rows, cols)
        )

    def test_batch_counts_equal_scalar_counts(self, matrix):
        batch = CountingOracle(MatrixOracle(matrix))
        scalar = CountingOracle(MatrixOracle(matrix))
        rows, cols = [0, 2, 5], [2, 5, 8, 0]
        batch.latency_block(rows, cols)
        scalar_block(scalar, rows, cols)
        assert batch.total_probes == scalar.total_probes == 12
        assert batch.unique_probes == scalar.unique_probes

    def test_batch_dedup_shared_with_scalar_path(self, matrix):
        counting = CountingOracle(MatrixOracle(matrix))
        counting.latency_ms(0, 2)
        counting.latencies_from(2, np.array([0, 1]))
        # (0,2) was already seen via the scalar probe.
        assert counting.total_probes == 3
        assert counting.unique_probes == 2


class TestNoisyOracleBatch:
    def test_batch_bit_identical_without_additive(self, matrix):
        batch = NoisyOracle(MatrixOracle(matrix), sigma=0.1, seed=3)
        scalar = NoisyOracle(MatrixOracle(matrix), sigma=0.1, seed=3)
        rows, cols = [1, 4], [0, 6, 9]
        assert np.array_equal(
            batch.latency_block(rows, cols), scalar_block(scalar, rows, cols)
        )

    def test_latencies_from_bit_identical_without_additive(self, matrix):
        batch = NoisyOracle(MatrixOracle(matrix), sigma=0.08, seed=11)
        scalar = NoisyOracle(MatrixOracle(matrix), sigma=0.08, seed=11)
        members = np.array([0, 2, 9, 5])
        expected = np.array([scalar.latency_ms(3, int(m)) for m in members])
        assert np.array_equal(batch.latencies_from(3, members), expected)

    def test_additive_batch_deterministic_and_one_sided(self, matrix):
        a = NoisyOracle(MatrixOracle(matrix), sigma=0.0, additive_ms=1.0, seed=5)
        b = NoisyOracle(MatrixOracle(matrix), sigma=0.0, additive_ms=1.0, seed=5)
        rows, cols = [0, 1], [2, 3]
        block_a = a.latency_block(rows, cols)
        assert np.array_equal(block_a, b.latency_block(rows, cols))
        assert np.all(block_a >= scalar_block(MatrixOracle(matrix), rows, cols))


class TestTopologyLatencyMatrix:
    def test_matches_per_pair_route(self, small_internet):
        """``latency_matrix`` equals the per-pair ``latency_ms`` loop bit
        for bit, so bulk blocks read the same RTTs as per-pair routing."""
        ids = np.arange(min(60, small_internet.n_hosts))
        block = small_internet.latency_matrix(ids)
        assert np.array_equal(block, scalar_block(small_internet, ids, ids))

    def test_rectangular_block_and_row(self, small_internet):
        rows = np.array([0, 5, 9])
        cols = np.array([3, 0, 17, 21])
        block = small_internet.latency_block(rows, cols)
        assert block.shape == (3, 4)
        assert np.array_equal(block, scalar_block(small_internet, rows, cols))
        for i, a in enumerate(rows):
            row = small_internet.latencies_from(int(a), cols)
            assert np.array_equal(row, block[i])

    def test_pair_latencies_match_route(self, small_internet):
        rng = np.random.default_rng(4)
        n = small_internet.n_hosts
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(50, 2))]
        values = small_internet.pair_latencies(pairs)
        expected = [small_internet.route(a, b).latency_ms for a, b in pairs]
        assert np.array_equal(values, expected)
        assert small_internet.pair_latencies([]).size == 0

    def test_scalar_latency_ms_matches_route(self, small_internet):
        for a, b in [(0, 1), (2, 30), (7, 7), (11, 40)]:
            assert small_internet.latency_ms(a, b) == pytest.approx(
                small_internet.route(a, b).latency_ms, abs=1e-12
            )

    def test_vectorised_lca_bit_identical_on_same_pop_pairs(
        self, small_internet
    ):
        """The grouped-array LCA scan must reproduce the scalar scan bit
        for bit on pairs sharing an attachment PoP router (the cells the
        vectorised correction rewrites)."""
        by_router: dict[int, list[int]] = {}
        for host in small_internet.hosts:
            router = small_internet.attachment_pop_router(host.host_id)
            by_router.setdefault(router, []).append(host.host_id)
        pairs = [
            (a, b)
            for hosts in by_router.values()
            for a in hosts[:5]
            for b in hosts[:5]
        ]
        assert pairs, "expected at least one shared attachment router"
        arr = np.asarray(pairs)
        values = small_internet._lca_pair_latencies(arr[:, 0], arr[:, 1])
        expected = np.array(
            [small_internet._pair_latency_ms(a, b) for a, b in pairs]
        )
        assert np.array_equal(values, expected)

    def test_ad_hoc_route_caches_are_gone(self, small_internet):
        # Regression for the unbounded per-pair caches the all-pairs
        # precomputation replaced.
        assert not hasattr(small_internet, "_core_dist_cache")
        assert not hasattr(small_internet, "_core_path_cache")


class TestProbeAccounting:
    def test_probe_many_counts_like_scalar_probes(self, matrix):
        oracle = MatrixOracle(matrix)
        members = np.arange(8)
        counting = CountingOracle(oracle)
        algorithm = RandomProbeSearch(budget=5)
        algorithm.build(oracle, members, seed=1, probe_oracle=counting)
        result = algorithm.query(10, seed=2)
        assert result.probes == 5
        assert counting.total_probes == 5

    def test_probe_many_direction_matches_scalar_probe(self):
        """probe_many must measure latency_ms(node, target), not the
        transpose — observable with an asymmetric oracle."""

        class _NullSearch(NearestPeerAlgorithm):
            name = "null"

            def _build(self, rng):
                pass

            def _plan(self, target, rng):
                yield probe_round([], target, [])
                raise NotImplementedError

        asym = np.arange(25, dtype=float).reshape(5, 5)
        np.fill_diagonal(asym, 0.0)
        algorithm = _NullSearch()
        algorithm.build(MatrixOracle(asym), np.arange(4), seed=0)
        batched = algorithm.probe_many([1, 2], 4)
        scalar = [algorithm.probe(1, 4), algorithm.probe(2, 4)]
        assert batched.tolist() == scalar
        assert batched.tolist() == [asym[1, 4], asym[2, 4]]

    def test_scalar_only_oracle_rejected_at_build(self, matrix):
        """An oracle without the batch members fails at ``build`` with a
        typed error naming them, as the oracle or as the probe oracle."""
        members = np.arange(8)
        shim = _ScalarOnly(MatrixOracle(matrix))
        with pytest.raises(
            ConfigurationError,
            match=r"oracle _ScalarOnly .*missing latencies_from, latency_block",
        ):
            BeaconSearch(n_beacons=4, probe_budget=3).build(shim, members, seed=3)
        with pytest.raises(ConfigurationError, match="probe_oracle _ScalarOnly"):
            BeaconSearch(n_beacons=4, probe_budget=3).build(
                MatrixOracle(matrix), members, seed=3, probe_oracle=shim
            )


class TestEngineSampledLoopRegression:
    def test_bit_identical_to_original_draw_then_query_sequence(self):
        """The hoisted sampled loop must replay the historical stream:
        draw one target, run one query on the same generator, repeat."""
        config = ClusteredConfig(n_clusters=3, end_networks_per_cluster=6, delta=0.2)
        sampling = SamplingSpec(n_targets=8)
        seed, n_queries = 17, 20

        engine_world = build_clustered_oracle(config, seed=seed)
        record = QueryEngine().run_world_trial(
            engine_world,
            RandomProbeSearch(budget=4),
            sampling=sampling,
            protocol="sampled",
            n_queries=n_queries,
            seed=seed,
        )

        world = build_clustered_oracle(config, seed=seed)
        rng = make_rng(seed)
        targets = sampling.sample(world, rng)
        members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
        algorithm = RandomProbeSearch(budget=4)
        algorithm.build(world.oracle, members, seed=rng)
        expected_targets = np.empty(n_queries, dtype=int)
        expected = []
        for i in range(n_queries):
            expected_targets[i] = int(rng.choice(targets))
            expected.append(algorithm.query(int(expected_targets[i]), seed=rng))

        assert np.array_equal(record.targets, expected_targets)
        assert np.array_equal(record.found, [r.found for r in expected])
        assert np.array_equal(record.probes, [r.probes for r in expected])
        assert np.array_equal(
            record.found_latency_ms, [r.found_latency_ms for r in expected]
        )


class TestPipelineBatchFlagEquivalence:
    @pytest.fixture(scope="class")
    def internet(self):
        config = InternetConfig(
            n_isps=3,
            pops_per_isp_low=2,
            pops_per_isp_high=4,
            en_per_pop_low=6,
            en_per_pop_high=16,
            dns_probability_campus=0.8,
        )
        return SyntheticInternet.generate(config, seed=21)

    def test_bulk_true_latencies_equal_per_pair_reads(self, internet):
        """The studies' bulk true-RTT blocks hold exactly what a per-pair
        ``latency_ms`` read gives, so their noise models see the same
        inputs as the per-call ``true_ms=None`` path of the tools."""
        study = DnsStudy(internet, seed=5)
        study.run()
        mh = internet.measurement_host_id
        assert study._host_true and study._pair_true
        for host, value in study._host_true.items():
            assert value == internet.latency_ms(mh, host)
        for (a, b), value in study._pair_true.items():
            assert value == internet.latency_ms(a, b)
        vantages, peers = internet.vantage_ids, internet.peer_ids
        assert np.array_equal(
            internet.latency_matrix(vantages, peers),
            scalar_block(internet, vantages, peers),
        )

    def test_sample_pairs_bit_identical_to_nested_loop(self, internet):
        """The 2-D pair draw must replay the historical per-server loop."""
        study = DnsStudy(internet, seed=13)
        clusters = {
            ("isp0", "a"): [3, 1, 4, 1, 5],
            ("isp1", "b"): [9, 2],
            ("isp2", "c"): [6],
        }
        study._rng = make_rng(99)  # replay with a known generator
        got = study._sample_pairs(clusters)
        reference_rng = make_rng(99)
        expected: set[tuple[int, int]] = set()
        for members in clusters.values():
            if len(members) < 2:
                continue
            for server in members:
                for _ in range(study._config.pairs_per_server):
                    other = int(reference_rng.choice(members))
                    if other == server:
                        continue
                    expected.add((min(server, other), max(server, other)))
        assert got == sorted(expected)


class TestOffDiagonal:
    def test_shape_and_values_match_triu_reference(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 7, 20):
            half = np.triu(rng.uniform(1.0, 9.0, size=(n, n)), k=1)
            matrix = LatencyMatrix(values=half + half.T)
            got = matrix.off_diagonal()
            expected = matrix.values[np.triu_indices(n, k=1)]
            assert got.shape == (n * (n - 1) // 2,)
            assert np.array_equal(got, expected)
