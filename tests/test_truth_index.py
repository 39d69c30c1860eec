"""The clustered ground-truth index scores exactly as the member block does.

:class:`~repro.topology.clustered.GroundTruthIndex` reads each target's
nearest live member off per-cluster minimum hub latencies instead of a
(targets x members) block.  These tests pin it, on generated Section 4
worlds and random membership logs, against

* ``latency_block(targets, members).min(axis=1)`` bit for bit;
* the block scorer (block minimum plus ``np.isin`` liveness) and the
  scalar :func:`~repro.harness.scoring.score_single`, per query;

and pin that a separated world never builds a member block while scoring,
while a world failing the separation guard does and still agrees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import RandomProbeSearch
from repro.harness import DaemonSpec, QueryEngine, SamplingSpec
from repro.harness import engine as engine_module
from repro.harness.results import MembershipLog
from repro.harness.scoring import TIE_EPS, score_batch, score_epochs, score_single
from repro.latency.builder import build_sparse_clustered_world
from repro.topology.clustered import ClusteredConfig, ClusteredTopology
from repro.util.errors import DataError


def _core(rng: np.random.Generator, n_clusters: int) -> np.ndarray:
    core = rng.uniform(0.0, 100.0, size=(n_clusters, n_clusters))
    core = (core + core.T) / 2.0
    np.fill_diagonal(core, 0.0)
    return core


@st.composite
def worlds(draw, intra_en_latency_ms: float | None = None):
    """A small Section 4 world: 1-6 clusters, 1-5 ENs each, 1-3 peers per EN."""
    kwargs = {}
    if intra_en_latency_ms is not None:
        kwargs["intra_en_latency_ms"] = intra_en_latency_ms
    config = ClusteredConfig(
        n_clusters=draw(st.integers(1, 6)),
        end_networks_per_cluster=draw(st.integers(1, 5)),
        peers_per_end_network=draw(st.integers(1, 3)),
        delta=draw(st.floats(0.0, 1.0)),
        **kwargs,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return ClusteredTopology.generate(config, _core(rng, config.n_clusters), seed=rng)


@st.composite
def runs(draw, intra_en_latency_ms: float | None = None):
    """A world, a membership log over it and queries with unsorted epochs.

    Events may empty whole clusters; every epoch keeps at least one member.
    Targets may be members, and a query may carry the no-answer id -1.
    """
    topology = draw(worlds(intra_en_latency_ms))
    n = topology.n_nodes
    hosts = np.arange(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = np.sort(rng.choice(hosts, size=rng.integers(1, n + 1), replace=False))
    log = MembershipLog(members)
    snapshots = [members]
    for _ in range(draw(st.integers(0, 8))):
        kind = rng.integers(3)
        if kind == 0:
            # Empty out one cluster, if another member survives it.
            cluster = rng.integers(topology.config.n_clusters)
            left = members[topology.host_cluster[members] == cluster]
            if left.size == members.size:
                left = left[1:]
        else:
            left = rng.choice(members, size=rng.integers(0, members.size), replace=False)
        outside = np.setdiff1d(hosts, members)
        joined = rng.choice(outside, size=rng.integers(0, outside.size + 1), replace=False)
        log.append_event(joined, left)
        members = members[~np.isin(members, left)]
        members = np.concatenate([members, np.sort(joined)])
        snapshots.append(members)
    n_queries = draw(st.integers(0, 30))
    epoch_of_query = rng.integers(0, log.n_epochs, size=n_queries)
    targets = rng.integers(0, n, size=n_queries)
    found = rng.integers(-1, n, size=n_queries)
    return topology, log, snapshots, epoch_of_query, targets, found


def _reference(topology, snapshots, epoch_of_query, targets, found):
    """Per-query block scoring: block minimum, pair RTT, ``np.isin``."""
    exact = np.zeros(targets.size, dtype=bool)
    cluster = np.zeros(targets.size, dtype=bool)
    dense = topology.full_matrix()
    for i, (epoch, t, f) in enumerate(zip(epoch_of_query, targets, found)):
        members = snapshots[epoch]
        if f < 0 or not np.isin(f, members):
            continue
        best = topology.latency_block(np.array([t]), members).min(axis=1)[0]
        rtt = topology.latency_pairs(np.array([t]), np.array([f]))[0]
        exact[i] = rtt <= best + TIE_EPS
        cluster[i] = topology.host_cluster[f] == topology.host_cluster[t]
        assert (exact[i], cluster[i]) == score_single(
            dense, members, int(t), int(f), topology.host_cluster
        )
    return exact, cluster


class TestIndexEqualsBlock:
    @settings(max_examples=150, deadline=None)
    @given(runs())
    def test_nearest_rtt_is_the_block_minimum_at_every_epoch(self, run):
        topology, log, snapshots, *_ = run
        index = topology.truth_index(log.initial)
        if index is None:
            assert not topology.en_separated
            return
        hosts = np.arange(topology.n_nodes)
        diffs = log.diffs()
        for epoch, members in enumerate(snapshots):
            if epoch:
                index.apply(*next(diffs))
            best = topology.latency_block(hosts, members).min(axis=1)
            assert np.array_equal(index.nearest_rtt(hosts), best)
            assert np.array_equal(index.live, np.isin(hosts, members))

    @settings(max_examples=150, deadline=None)
    @given(runs())
    def test_score_epochs_matches_block_and_scalar_scoring(self, run):
        topology, log, snapshots, epoch_of_query, targets, found = run
        expected = _reference(topology, snapshots, epoch_of_query, targets, found)
        args = (epoch_of_query, targets, found, topology.host_cluster)
        for memberships in (log, snapshots):
            exact, cluster = score_epochs(topology, memberships, *args)
            assert np.array_equal(exact, expected[0])
            assert np.array_equal(cluster, expected[1])

    @settings(max_examples=100, deadline=None)
    @given(runs())
    def test_score_batch_matches_dense_matrix(self, run):
        topology, _, snapshots, _, targets, found = run
        members = snapshots[-1]
        found = np.where(found < 0, members[0], found)
        on_topology = score_batch(
            topology, members, targets, found, topology.host_cluster
        )
        on_matrix = score_batch(
            topology.full_matrix(), members, targets, found, topology.host_cluster
        )
        assert np.array_equal(on_topology[0], on_matrix[0])
        assert np.array_equal(on_topology[1], on_matrix[1])

    def test_two_member_world(self):
        # One end-network of two peers: each is the other's nearest member.
        config = ClusteredConfig(n_clusters=1, end_networks_per_cluster=1)
        topology = ClusteredTopology.generate(config, np.zeros((1, 1)), seed=3)
        index = topology.truth_index(np.array([1]))
        assert index.nearest_rtt(np.array([0, 1])).tolist() == [
            config.intra_en_latency_ms, 0.0
        ]
        index.apply(np.array([0]), np.array([1]))
        assert index.nearest_rtt(np.array([0, 1])).tolist() == [
            0.0, config.intra_en_latency_ms
        ]

    def test_only_near_member_is_an_end_network_mate(self):
        config = ClusteredConfig(n_clusters=3, end_networks_per_cluster=4)
        rng = np.random.default_rng(4)
        topology = ClusteredTopology.generate(config, _core(rng, 3), seed=rng)
        target, mate = 0, 1
        far = topology.hosts_in_cluster(2)
        members = np.concatenate([[mate], far])
        index = topology.truth_index(members)
        assert index.nearest_rtt(np.array([target]))[0] == config.intra_en_latency_ms
        found = np.array([mate, far[0]])
        exact, cluster = score_epochs(
            topology, MembershipLog(members), np.array([0, 0]),
            np.array([target, target]), found, topology.host_cluster,
        )
        assert exact.tolist() == [True, False]
        assert cluster.tolist() == [True, False]
        # With the mate gone the nearest member is the far cluster's.
        index.apply(np.array([], dtype=int), np.array([mate]))
        best = topology.latency_block(np.array([target]), far).min(axis=1)
        assert np.array_equal(index.nearest_rtt(np.array([target])), best)


class TestSeparationGuard:
    @settings(max_examples=60, deadline=None)
    @given(runs(intra_en_latency_ms=50.0))
    def test_unseparated_world_scores_through_the_block(self, run):
        topology, log, snapshots, epoch_of_query, targets, found = run
        # Hubs are at most 12 ms here, so 50 ms end-network mates fail the guard.
        assert not topology.en_separated
        assert topology.truth_index(log.initial) is None
        expected = _reference(topology, snapshots, epoch_of_query, targets, found)
        exact, cluster = score_epochs(
            topology, log, epoch_of_query, targets, found, topology.host_cluster
        )
        assert np.array_equal(exact, expected[0])
        assert np.array_equal(cluster, expected[1])

    def test_unseparated_world_calls_latency_block(self, monkeypatch):
        config = ClusteredConfig(
            n_clusters=3, end_networks_per_cluster=4, intra_en_latency_ms=50.0
        )
        rng = np.random.default_rng(1)
        topology = ClusteredTopology.generate(config, _core(rng, 3), seed=rng)
        calls = _spy_latency_block(monkeypatch)
        members = np.arange(0, topology.n_nodes, 2)
        score_epochs(
            topology, MembershipLog(members), np.zeros(4, dtype=int),
            np.arange(1, 9, 2), members[:4],
        )
        assert calls


def _spy_latency_block(monkeypatch) -> list:
    calls = []
    original = ClusteredTopology.latency_block

    def spy(self, rows, cols):
        calls.append((len(rows), len(cols)))
        return original(self, rows, cols)

    monkeypatch.setattr(ClusteredTopology, "latency_block", spy)
    return calls


class TestFastPathPinned:
    def test_daemon_scoring_on_sparse_world_builds_no_member_block(
        self, monkeypatch
    ):
        """Scoring a separated sparse world never falls back to O(members)."""
        world = build_sparse_clustered_world(
            ClusteredConfig(n_clusters=6, end_networks_per_cluster=20), seed=99
        )
        assert world.topology.en_separated
        calls = _spy_latency_block(monkeypatch)
        scoring_calls = []
        original = engine_module.score_epochs

        def score_epochs_spy(*args, **kwargs):
            before = len(calls)
            result = original(*args, **kwargs)
            scoring_calls.append(len(calls) - before)
            return result

        monkeypatch.setattr(engine_module, "score_epochs", score_epochs_spy)
        spec = DaemonSpec(
            mean_interarrival_ms=30.0,
            initial_fraction=0.7,
            min_members=32,
            mean_event_interval_ms=120.0,
            departure_rate=0.6,
            arrival_rate=0.6,
        )
        record = QueryEngine().run_daemon_trial(
            world,
            RandomProbeSearch(budget=8),
            spec,
            sampling=SamplingSpec(n_targets=30),
            n_queries=40,
            seed=5,
        )
        assert record.n_churn_events > 0
        assert scoring_calls == [0]

    def test_score_batch_on_sparse_world_builds_no_member_block(self, monkeypatch):
        world = build_sparse_clustered_world(
            ClusteredConfig(n_clusters=6, end_networks_per_cluster=20), seed=99
        )
        calls = _spy_latency_block(monkeypatch)
        members = np.arange(10, world.topology.n_nodes)
        score_batch(world.topology, members, np.arange(10), members[:10])
        assert calls == []


@pytest.mark.parametrize("epochs", [[-1], [3]])
def test_log_epoch_out_of_range_rejected(epochs):
    config = ClusteredConfig(n_clusters=2, end_networks_per_cluster=2)
    topology = ClusteredTopology.generate(config, np.zeros((2, 2)), seed=0)
    log = MembershipLog(np.arange(4))
    log.append_event([5], [0])
    with pytest.raises(DataError):
        score_epochs(topology, log, np.array(epochs), np.array([6]), np.array([1]))
