"""Tests for the latency-oracle wrappers (counting, noise, protocol)."""

import numpy as np
import pytest

from repro.topology.oracle import (
    CountingOracle,
    LatencyOracle,
    MatrixOracle,
    NoisyOracle,
)
from repro.util.errors import DataError


@pytest.fixture()
def matrix_oracle():
    matrix = np.array(
        [[0.0, 10.0, 20.0], [10.0, 0.0, 30.0], [20.0, 30.0, 0.0]]
    )
    return MatrixOracle(matrix)


class TestMatrixOracle:
    def test_protocol_conformance(self, matrix_oracle):
        assert isinstance(matrix_oracle, LatencyOracle)

    def test_lookup(self, matrix_oracle):
        assert matrix_oracle.latency_ms(0, 1) == 10.0
        assert matrix_oracle.n_nodes == 3

    def test_latencies_from_row(self, matrix_oracle):
        assert matrix_oracle.latencies_from(1).tolist() == [10.0, 0.0, 30.0]

    def test_latencies_from_subset(self, matrix_oracle):
        assert matrix_oracle.latencies_from(1, np.array([2, 0])).tolist() == [
            30.0,
            10.0,
        ]

    def test_latency_block(self, matrix_oracle):
        block = matrix_oracle.latency_block(np.array([0, 2]), np.array([1]))
        assert block.tolist() == [[10.0], [30.0]]

    def test_rejects_non_square(self):
        with pytest.raises(DataError):
            MatrixOracle(np.zeros((2, 3)))


class TestCountingOracle:
    def test_counts_total_and_unique(self, matrix_oracle):
        counting = CountingOracle(matrix_oracle)
        counting.latency_ms(0, 1)
        counting.latency_ms(1, 0)  # same unordered pair
        counting.latency_ms(0, 2)
        assert counting.total_probes == 3
        assert counting.unique_probes == 2

    def test_reset(self, matrix_oracle):
        counting = CountingOracle(matrix_oracle)
        counting.latency_ms(0, 1)
        counting.reset()
        assert counting.total_probes == 0
        assert counting.unique_probes == 0

    def test_passes_values_through(self, matrix_oracle):
        counting = CountingOracle(matrix_oracle)
        assert counting.latency_ms(0, 2) == 20.0

    def test_protocol_conformance(self, matrix_oracle):
        assert isinstance(CountingOracle(matrix_oracle), LatencyOracle)


class TestNoisyOracle:
    def test_noise_centered_on_truth(self, matrix_oracle):
        noisy = NoisyOracle(matrix_oracle, sigma=0.05, seed=0)
        samples = [noisy.latency_ms(0, 1) for _ in range(300)]
        assert np.median(samples) == pytest.approx(10.0, rel=0.05)

    def test_additive_component_one_sided(self, matrix_oracle):
        noisy = NoisyOracle(matrix_oracle, sigma=0.0, additive_ms=1.0, seed=1)
        samples = [noisy.latency_ms(0, 1) for _ in range(100)]
        assert all(s >= 10.0 for s in samples)

    def test_zero_noise_exact(self, matrix_oracle):
        noisy = NoisyOracle(matrix_oracle, sigma=0.0, additive_ms=0.0, seed=2)
        assert noisy.latency_ms(0, 1) == 10.0

    def test_negative_parameters_rejected(self, matrix_oracle):
        for bad in (-0.1, float("nan")):
            with pytest.raises(DataError):
                NoisyOracle(matrix_oracle, sigma=bad)
            with pytest.raises(DataError):
                NoisyOracle(matrix_oracle, additive_ms=bad)

    def test_deterministic_with_seed(self, matrix_oracle):
        a = NoisyOracle(matrix_oracle, sigma=0.1, seed=5)
        b = NoisyOracle(matrix_oracle, sigma=0.1, seed=5)
        assert a.latency_ms(0, 1) == b.latency_ms(0, 1)
