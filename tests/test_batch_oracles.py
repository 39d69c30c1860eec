"""Batch-vs-scalar equivalence for the probe fast path.

Every oracle's ``latency_block`` / ``latencies_from`` must agree with the
element-wise scalar loop; ``RouterLevelTopology.latency_matrix`` must agree
with per-pair ``route()``; probe accounting must be identical whichever
path an algorithm takes; and the engine's hoisted sampled loop must be
bit-identical to the original draw-then-query sequence.
"""

import numpy as np
import pytest

from repro.algorithms import BeaconSearch, RandomProbeSearch
from repro.algorithms.base import NearestPeerAlgorithm, probe_round
from repro.harness.engine import QueryEngine
from repro.harness.scenario import SamplingSpec
from repro.latency.builder import build_clustered_oracle
from repro.latency.matrix import LatencyMatrix
from repro.measurement.azureus_pipeline import AzureusStudy, AzureusStudyConfig
from repro.measurement.dns_pipeline import DnsStudy, DnsStudyConfig
from repro.topology.clustered import ClusteredConfig
from repro.topology.internet import InternetConfig, SyntheticInternet
from repro.topology.oracle import (
    CountingOracle,
    MatrixOracle,
    NoisyOracle,
    batch_latencies_from,
    batch_latency_block,
)
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
    """Oracle shim exposing only the scalar protocol (forces fallbacks)."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def n_nodes(self):
        return self._inner.n_nodes

    def latency_ms(self, a, b):
        return self._inner.latency_ms(a, b)


class _LegacyRowOracle:
    """Third-party style oracle with the old single-argument latencies_from."""

    def __init__(self, matrix):
        self._matrix = np.asarray(matrix, dtype=float)

    @property
    def n_nodes(self):
        return self._matrix.shape[0]

    def latency_ms(self, a, b):
        return float(self._matrix[a, b])

    def latencies_from(self, a):
        return self._matrix[a]


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


class TestDispatchHelpers:
    def test_scalar_only_fallback(self, matrix):
        shim = _ScalarOnly(MatrixOracle(matrix))
        rows, cols = [0, 5], [1, 2, 3]
        assert np.array_equal(
            batch_latency_block(shim, rows, cols), matrix[np.ix_(rows, cols)]
        )
        assert np.array_equal(
            batch_latencies_from(shim, 7, cols), matrix[7, cols]
        )

    def test_legacy_single_argument_latencies_from(self, matrix):
        legacy = _LegacyRowOracle(matrix)
        members = np.array([2, 0, 11])
        assert np.array_equal(
            batch_latencies_from(legacy, 6, members), matrix[6, members]
        )

    def test_typeerror_inside_modern_implementation_propagates(self, matrix):
        """A TypeError raised *inside* a two-argument latencies_from is a
        real bug and must not be misread as the legacy signature (the
        retry would double-consume oracle state)."""

        class Buggy(_LegacyRowOracle):
            calls = 0

            def latencies_from(self, a, members=None):
                type(self).calls += 1
                raise TypeError("bug inside the implementation")

        buggy = Buggy(matrix)
        with pytest.raises(TypeError, match="bug inside"):
            batch_latencies_from(buggy, 0, np.array([1, 2]))
        assert Buggy.calls == 1


class TestTopologyLatencyMatrix:
    def test_matches_per_pair_route(self, small_internet):
        ids = np.arange(min(60, small_internet.n_hosts))
        block = small_internet.latency_matrix(ids)
        reference = np.array(
            [
                [small_internet.route(int(a), int(b)).latency_ms for b in ids]
                for a in ids
            ]
        )
        assert np.allclose(block, reference, rtol=0, atol=1e-9)

    def test_rectangular_block_and_row(self, small_internet):
        rows = np.array([0, 5, 9])
        cols = np.array([3, 0, 17, 21])
        block = small_internet.latency_block(rows, cols)
        assert block.shape == (3, 4)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert block[i, j] == pytest.approx(
                    small_internet.route(int(a), int(b)).latency_ms, abs=1e-9
                )
        row = small_internet.latencies_from(int(rows[1]), cols)
        assert np.allclose(row, block[1], rtol=0, atol=1e-9)

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

    def test_batch_and_scalar_probe_paths_agree(self, matrix):
        members = np.arange(8)
        fast = BeaconSearch(n_beacons=4, probe_budget=3)
        fast.build(MatrixOracle(matrix), members, seed=3)
        slow = BeaconSearch(n_beacons=4, probe_budget=3)
        slow.build(_ScalarOnly(MatrixOracle(matrix)), members, seed=3)
        slow._probe_oracle = _ScalarOnly(MatrixOracle(matrix))
        a = fast.query(9, seed=4)
        b = slow.query(9, seed=4)
        assert a.found == b.found
        assert a.probes == b.probes
        assert a.found_latency_ms == pytest.approx(b.found_latency_ms)


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

    def test_dns_study_identical_with_and_without_batching(self, internet):
        batched = DnsStudy(
            internet, config=DnsStudyConfig(batch_true_latencies=True), seed=5
        ).run()
        scalar = DnsStudy(
            internet, config=DnsStudyConfig(batch_true_latencies=False), seed=5
        ).run()
        assert batched.measurements == scalar.measurements
        assert batched.intra_domain_predicted_10 == scalar.intra_domain_predicted_10
        assert batched.pairs_discarded_negative == scalar.pairs_discarded_negative
        assert batched.servers_traced == scalar.servers_traced

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

    def test_azureus_study_identical_with_and_without_batching(self, internet):
        batched = AzureusStudy(
            internet, config=AzureusStudyConfig(batch_true_latencies=True), seed=6
        ).run()
        scalar = AzureusStudy(
            internet, config=AzureusStudyConfig(batch_true_latencies=False), seed=6
        ).run()
        assert batched.peers_retained == scalar.peers_retained
        assert [c.peer_ids for c in batched.pruned_clusters] == [
            c.peer_ids for c in scalar.pruned_clusters
        ]
        assert [c.hub_latency_ms for c in batched.unpruned_clusters] == [
            c.hub_latency_ms for c in scalar.unpruned_clusters
        ]


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
