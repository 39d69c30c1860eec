"""Tests for Vivaldi and GNP coordinate systems."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import VivaldiGreedySearch
from repro.coords.errors import embedding_error_stats
from repro.coords.gnp import GnpConfig, GnpEmbedding, _solve_points
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.topology.oracle import CountingOracle, MatrixOracle
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
        system.run(euclidean_world.latency_block, rounds=40, neighbors_per_round=8)
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
        system.run(euclidean_world.latency_block, rounds=30)
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
        system.run(euclidean_world.latency_block, rounds=3, neighbors_per_round=8)
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
        system.run(world.oracle.latency_block, rounds=25, neighbors_per_round=8)

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


# -- The coordinate kernels equal the per-point code they replaced ---------------
#
# The point-by-point LM solver and the sample-by-sample Vivaldi loop are kept
# below verbatim as references: the lockstep solver and the per-node kernel
# must reproduce them bit for bit (``np.array_equal``), rng state included.


def reference_lm_least_squares(residual_fn, jacobian_fn, x0, max_iter):
    """The point-by-point Levenberg-Marquardt loop."""
    x = np.array(x0, dtype=float)
    residual = residual_fn(x)
    cost = float(residual @ residual)
    lam = 1e-3
    for _ in range(max_iter):
        jacobian = jacobian_fn(x)
        gradient = jacobian.T @ residual
        if float(np.max(np.abs(gradient), initial=0.0)) < 1e-12:
            break
        hessian = jacobian.T @ jacobian
        diag = np.diag_indices_from(hessian)
        improved = False
        relative_drop = 0.0
        while lam <= 1e12:
            damped = hessian.copy()
            damped[diag] += lam * np.maximum(hessian[diag], 1e-12)
            try:
                step = np.linalg.solve(damped, -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = x + step
            candidate_residual = residual_fn(candidate)
            candidate_cost = float(candidate_residual @ candidate_residual)
            if candidate_cost < cost:
                relative_drop = (cost - candidate_cost) / max(cost, 1e-300)
                x, residual, cost = candidate, candidate_residual, candidate_cost
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10.0
        if not improved or relative_drop < 1e-12:
            break
    return x


def reference_solve_point(anchors, rtts, x0):
    """One point's least-squares position against fixed anchors."""
    weights = np.maximum(rtts, 1e-3)

    def residuals(x):
        predicted = np.linalg.norm(anchors - x[None, :], axis=1)
        return (predicted - rtts) / weights

    def jacobian(x):
        offsets = x[None, :] - anchors
        distances = np.maximum(np.linalg.norm(offsets, axis=1), 1e-12)
        return offsets / (distances * weights)[:, None]

    return reference_lm_least_squares(residuals, jacobian, x0, max_iter=50)


def reference_gnp_build(measure, members, config, seed):
    """``GnpEmbedding.build`` with the joint landmark fit and one solve per
    member done point by point; returns (landmark positions, positions)."""
    rng = np.random.default_rng(seed)
    members = np.asarray(members, dtype=int)
    landmarks = rng.choice(members, size=config.n_landmarks, replace=False)
    lm_rtts = np.asarray(measure(landmarks, landmarks), dtype=float)
    L, d = config.n_landmarks, config.dimensions
    x0 = rng.normal(0.0, np.median(lm_rtts) / 2.0 + 1e-3, size=L * d)
    iu = np.triu_indices(L, k=1)
    actual = lm_rtts[iu]
    weights = np.maximum(actual, 1e-3)
    pair_index = np.arange(iu[0].size)

    def landmark_residuals(flat):
        pos = flat.reshape(L, d)
        diff = pos[iu[0]] - pos[iu[1]]
        return (np.linalg.norm(diff, axis=1) - actual) / weights

    def landmark_jacobian(flat):
        pos = flat.reshape(L, d)
        diff = pos[iu[0]] - pos[iu[1]]
        distances = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        grad = diff / (distances * weights)[:, None]
        jacobian = np.zeros((iu[0].size, L * d))
        for axis in range(d):
            jacobian[pair_index, iu[0] * d + axis] = grad[:, axis]
            jacobian[pair_index, iu[1] * d + axis] = -grad[:, axis]
        return jacobian

    lm_positions = reference_lm_least_squares(
        landmark_residuals, landmark_jacobian, x0, max_iter=200
    ).reshape(L, d)
    positions = {int(lm): lm_positions[i] for i, lm in enumerate(landmarks)}
    centroid = lm_positions.mean(axis=0)
    others = members[~np.isin(members, landmarks)]
    rtts = np.asarray(measure(others, landmarks), dtype=float)
    for node, row in zip(others.tolist(), rtts):
        positions[node] = reference_solve_point(lm_positions, row, centroid)
    return lm_positions, positions


@st.composite
def lm_cases(draw):
    """Anchors, per-point RTTs and a start: zeros, duplicates, coincident
    anchors and a start on an anchor included."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 5))
    n_anchors = draw(st.integers(d + 1, 16))
    k = draw(st.integers(1, 64))
    rng = np.random.default_rng(seed)
    anchors = rng.normal(0.0, 40.0, size=(n_anchors, d))
    if draw(st.booleans()):  # coincident anchors
        n_same = draw(st.integers(2, n_anchors))
        anchors[:n_same] = anchors[0]
    if draw(st.booleans()):  # integer-valued: exact ties everywhere
        anchors = np.round(anchors / 10.0)
    points = rng.normal(0.0, 40.0, size=(k, d))
    rtts = np.linalg.norm(points[:, None, :] - anchors[None], axis=-1)
    rtts *= rng.uniform(0.6, 1.4, size=rtts.shape)
    rtts[rng.random(rtts.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    if draw(st.booleans()):  # duplicated measurement values
        rtts = np.round(rtts / 25.0) * 25.0
    if draw(st.booleans()):
        x0 = anchors[draw(st.integers(0, n_anchors - 1))].copy()
    else:
        x0 = anchors.mean(axis=0)
    return anchors, rtts, x0


class TestLockstepLm:
    @settings(max_examples=60, deadline=None)
    @given(lm_cases())
    def test_stack_equals_point_by_point(self, case):
        anchors, rtts, x0 = case
        solved = _solve_points(anchors, rtts, x0)
        for row, point in zip(rtts, solved):
            assert np.array_equal(point, reference_solve_point(anchors, row, x0))

    @settings(max_examples=25, deadline=None)
    @given(lm_cases())
    def test_a_singular_try_fails_only_its_own_point(self, case):
        """A damped system the solver cannot factor bumps only that point's
        damping.  Damping keeps real systems regular, so this forces the
        branch with a ``solve`` that calls a matrix singular by a fixed rule
        on its entries: a stacked call raises if any item is so marked."""
        anchors, rtts, x0 = case
        real_solve = np.linalg.solve

        def flaky_solve(a, b):
            marked = (np.asarray(a)[..., 0, 0] * 1e3) % 1.0 < 0.3
            if np.any(marked):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", flaky_solve)
            solved = _solve_points(anchors, rtts, x0)
            for row, point in zip(rtts, solved):
                assert np.array_equal(
                    point, reference_solve_point(anchors, row, x0)
                )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.data(),
    )
    def test_build_equals_joint_fit_and_per_point_solves(self, seed, d, data):
        n_landmarks = data.draw(st.integers(d + 1, 12))
        n_members = data.draw(st.integers(n_landmarks, n_landmarks + 30))
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 100, size=(n_members, data.draw(st.integers(1, 4))))
        matrix = np.linalg.norm(points[:, None] - points[None], axis=-1)
        if data.draw(st.booleans()):
            matrix = np.round(matrix / 20.0) * 20.0  # zeros and duplicates
        oracle = MatrixOracle(matrix)
        config = GnpConfig(dimensions=d, n_landmarks=n_landmarks)
        embedding = GnpEmbedding.build(
            oracle.latency_block, np.arange(n_members), config, seed=seed
        )
        lm_positions, positions = reference_gnp_build(
            oracle.latency_block, np.arange(n_members), config, seed
        )
        assert np.array_equal(embedding.landmark_positions, lm_positions)
        for node, position in positions.items():
            assert np.array_equal(embedding.position(node), position)

    def test_external_placement_equals_point_by_point(self, euclidean_world):
        embedding = GnpEmbedding.build(
            euclidean_world.latency_block,
            np.arange(40),
            GnpConfig(dimensions=2, n_landmarks=8),
            seed=3,
        )
        centroid = embedding.landmark_positions.mean(axis=0)
        for target in range(40, 60):
            rtts = euclidean_world.latency_block(
                [target], embedding.landmark_ids
            )[0]
            assert np.array_equal(
                embedding.place_external(rtts),
                reference_solve_point(embedding.landmark_positions, rtts, centroid),
            )


def reference_observe(system, a, b, rtt_ms):
    """The sample-by-sample Vivaldi update on ``system``'s arrays."""
    if rtt_ms <= 0:
        return
    cfg = system.config
    ia, ib = system._row(a), system._row(b)
    delta_vec = system.positions[ia] - system.positions[ib]
    euclid = float(np.linalg.norm(delta_vec))
    predicted = euclid + (
        system.heights[ia] + system.heights[ib] if cfg.use_height else 0.0
    )
    if euclid < 1e-9:
        direction = system._rng.normal(size=cfg.dimensions)
        direction /= np.linalg.norm(direction)
        euclid_dir = direction
    else:
        euclid_dir = delta_vec / euclid
    w = system.errors[ia] / (system.errors[ia] + system.errors[ib] + 1e-12)
    relative_error = abs(predicted - rtt_ms) / rtt_ms
    system.errors[ia] = relative_error * cfg.ce * w + system.errors[ia] * (
        1.0 - cfg.ce * w
    )
    system.errors[ia] = float(np.clip(system.errors[ia], 0.01, 5.0))
    force = cfg.cc * w * (rtt_ms - predicted)
    system.positions[ia] += force * euclid_dir
    if cfg.use_height and euclid > 1e-9:
        system.heights[ia] = max(
            cfg.min_height,
            system.heights[ia] + force * (system.heights[ia] / predicted),
        )
    system.samples_processed += 1


def reference_run(system, oracle, rounds, neighbors_per_round):
    """The driver as one scalar ``latency_ms`` read and one observe per sample."""
    n = system.node_ids.size
    size = min(neighbors_per_round, n)
    for _ in range(rounds):
        order = system._rng.permutation(n)
        for row in order:
            node = int(system.node_ids[row])
            partners = system._rng.choice(n, size=size, replace=False)
            for partner_row in partners:
                if partner_row == row:
                    continue
                partner = int(system.node_ids[partner_row])
                reference_observe(
                    system, node, partner, oracle.latency_ms(node, partner)
                )


class TestVivaldiKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(1, 10),
        st.booleans(),
        st.booleans(),
        st.integers(1, 4),
    )
    def test_run_equals_one_observe_per_sample(
        self, seed, n, neighbors_per_round, use_height, zero_start, dimensions
    ):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 100, size=(n + 4, 2))
        matrix = np.linalg.norm(points[:, None] - points[None], axis=-1)
        matrix = np.round(matrix / 15.0) * 15.0  # zero RTTs and duplicates
        ids = np.sort(rng.choice(n + 4, size=n, replace=False))
        config = VivaldiConfig(dimensions=dimensions, use_height=use_height)
        kernel = VivaldiSystem(ids, config, seed=seed)
        reference = VivaldiSystem(ids, config, seed=seed)
        if zero_start:  # every first sample takes the random-direction branch
            kernel.positions[:] = 0.0
            reference.positions[:] = 0.0
        kernel_oracle = CountingOracle(MatrixOracle(matrix))
        reference_oracle = CountingOracle(MatrixOracle(matrix))
        kernel.run(kernel_oracle.latency_block, rounds=3,
                   neighbors_per_round=neighbors_per_round)
        reference_run(reference, reference_oracle, 3, neighbors_per_round)
        assert np.array_equal(kernel.positions, reference.positions)
        assert np.array_equal(kernel.heights, reference.heights)
        assert np.array_equal(kernel.errors, reference.errors)
        assert kernel.samples_processed == reference.samples_processed
        assert kernel._rng.bit_generator.state == reference._rng.bit_generator.state
        assert (kernel_oracle.total_probes, kernel_oracle.unique_probes) == (
            reference_oracle.total_probes,
            reference_oracle.unique_probes,
        )

    def test_observe_equals_the_reference_update(self, euclidean_world):
        kernel = VivaldiSystem(np.arange(60), seed=6)
        reference = VivaldiSystem(np.arange(60), seed=6)
        kernel.positions[:5] = 0.0
        reference.positions[:5] = 0.0
        pairs = sample_pairs(60, 300, seed=6) + [(0, 1), (1, 2), (3, 4)]
        for a, b in pairs:
            rtt = euclidean_world.latency_ms(a, b)
            kernel.observe(a, b, rtt)
            reference_observe(reference, a, b, rtt)
        assert np.array_equal(kernel.positions, reference.positions)
        assert np.array_equal(kernel.heights, reference.heights)
        assert np.array_equal(kernel.errors, reference.errors)
        assert kernel._rng.bit_generator.state == reference._rng.bit_generator.state


class _ZeroFirstNormalRng:
    """An rng whose first ``normal`` draw is all zeros and whose later ones
    are ``1, 2, ..., size`` (not a unit vector); ``integers`` picks 0."""

    def __init__(self):
        self._draws = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        self._draws += 1
        if self._draws == 1:
            return np.zeros(size)
        return np.arange(1.0, size + 1)

    def integers(self, high):
        return 0


class TestRandomUnitDirection:
    """A node sitting exactly on its partner steps along a *unit* random
    direction, so the step length is ``|force|`` (Dabek et al.)."""

    def test_place_external_steps_by_the_force(self):
        system = VivaldiSystem(
            [0, 1], VivaldiConfig(dimensions=2, use_height=False), seed=0
        )
        system._rng = _ZeroFirstNormalRng()
        rtt = 10.0
        position, _height = system.place_external({0: rtt}, iterations=1)
        error = system.config.initial_error
        w = error / (error + float(system.errors[0]) + 1e-12)
        force = system.config.cc * w * (rtt - 0.0)
        step = position - system.positions[0]
        assert np.linalg.norm(step) == pytest.approx(abs(force), rel=1e-12)
        assert np.allclose(step / np.linalg.norm(step), [1.0, 2.0] / np.sqrt(5.0))

    def test_spring_fit_steps_by_the_force(self, euclidean_world):
        search = VivaldiGreedySearch()
        search.build(euclidean_world, np.arange(20), seed=1)
        rtt = 10.0
        position = search._spring_fit(
            np.array([3]), np.array([rtt]), _ZeroFirstNormalRng(), iterations=1
        )
        step = position - search._positions[3]
        assert np.linalg.norm(step) == pytest.approx(0.25 * rtt, rel=1e-12)
        assert np.allclose(step, 0.25 * rtt * np.arange(1.0, 4.0) / math.sqrt(14.0))


class TestVivaldiMeasurement:
    def test_build_reads_through_the_index_channel(self, euclidean_world):
        """The embedding's RTTs come through ``offline_probe_block`` (one
        block per node per round) and stay off every bill."""
        oracle = CountingOracle(euclidean_world)
        search = VivaldiGreedySearch(vivaldi_rounds=3)
        read = []
        channel = search.offline_probe_block

        def counted(rows, cols):
            block = channel(rows, cols)
            read.append(block.size)
            return block

        search.offline_probe_block = counted
        search.build(oracle, np.arange(30), seed=2)
        assert len(read) == 3 * 30
        assert sum(read) == oracle.total_probes
        assert search.maintenance_probes_total == 0
        assert search.maintenance_ledger.total == 0
        assert search.maintenance_ledger.n_events == 0


class TestPlatformContract:
    """What the bit-identity of the coordinate kernels rests on.

    numpy computes ``norm`` of a 1-D real vector as ``sqrt(v.dot(v))`` and
    ``norm(axis=-1)`` as ``sqrt(add.reduce(v * v))``; stacked ``matmul`` and
    ``linalg.solve`` give each item the floats of the per-item call.  A
    numpy or BLAS upgrade that breaks one of these fails here, by name.
    """

    @staticmethod
    def _blas() -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            np.show_config()
        return buffer.getvalue()

    def test_norm_is_sqrt_of_dot(self):
        rng = np.random.default_rng(0)
        for size in range(1, 13):
            for _ in range(200):
                v = rng.normal(0.0, 50.0, size=size)
                assert np.linalg.norm(v) == math.sqrt(v.dot(v)), self._blas()
        stack = rng.normal(0.0, 50.0, size=(40, 16, 5))
        assert np.array_equal(
            np.linalg.norm(stack, axis=-1),
            np.sqrt(np.add.reduce(stack * stack, axis=-1)),
        ), self._blas()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 60])
    def test_stacked_matmul_and_solve_equal_per_item_calls(self, d):
        rng = np.random.default_rng(d)
        n_rows = 66 if d == 60 else 12
        k = 1 if d == 60 else 30
        jacobian = rng.normal(0.0, 3.0, size=(k, n_rows, d))
        residual = rng.normal(0.0, 3.0, size=(k, n_rows))
        jacobian_t = jacobian.transpose(0, 2, 1)
        gradient = np.matmul(jacobian_t, residual[:, :, None])[:, :, 0]
        hessian = np.matmul(jacobian_t, jacobian)
        cost = np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0]
        damped = hessian + 0.1 * np.eye(d)
        steps = np.linalg.solve(damped, -gradient[:, :, None])[:, :, 0]
        for i in range(k):
            # The message (the BLAS numpy was built with) is only built on failure.
            assert np.array_equal(
                gradient[i], jacobian[i].T @ residual[i]
            ), self._blas()
            assert np.array_equal(
                hessian[i], jacobian[i].T @ jacobian[i]
            ), self._blas()
            assert cost[i] == float(residual[i] @ residual[i]), self._blas()
            assert np.array_equal(
                steps[i], np.linalg.solve(damped[i], -gradient[i])
            ), self._blas()
