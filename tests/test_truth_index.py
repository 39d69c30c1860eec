"""The clustered ground-truth index scores exactly as the member block does.

:class:`~repro.topology.clustered.GroundTruthIndex` reads each target's
nearest live member off per-cluster hub-latency minima instead of a
(targets x members) block.  These tests pin it, on generated Section 4
worlds and random membership logs — including worlds where a cross-network
host can be nearer than an end-network mate (50 ms end-networks, or hubs
near zero at ``delta`` = 1) — against

* ``latency_block(targets, members).min(axis=1)`` bit for bit;
* the block scorer (block minimum plus ``np.isin`` liveness) and the
  scalar :func:`~repro.harness.scoring.score_single`, per query;

and pin that scoring never builds a member block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import MeridianSearch, RandomProbeSearch
from repro.harness import DaemonSpec, QueryEngine, SamplingSpec
from repro.harness import engine as engine_module
from repro.harness.results import MembershipLog
from repro.harness.scoring import TIE_EPS, score_epochs, score_single
from repro.latency.builder import build_clustered_oracle, build_sparse_clustered_world
from repro.topology.clustered import (
    ClusteredConfig,
    ClusteredTopology,
    GroundTruthIndex,
)
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


def _check_index_against_block(run):
    topology, log, snapshots, *_ = run
    index = GroundTruthIndex(topology, log.initial)
    hosts = np.arange(topology.n_nodes)
    diffs = log.diffs()
    for epoch, members in enumerate(snapshots):
        if epoch:
            index.apply(*next(diffs))
        best = topology.latency_block(hosts, members).min(axis=1)
        assert np.array_equal(index.nearest_rtt(hosts), best)
        assert np.array_equal(index.live, np.isin(hosts, members))


def _check_scoring_against_reference(run):
    topology, log, snapshots, epoch_of_query, targets, found = run
    expected = _reference(topology, snapshots, epoch_of_query, targets, found)
    exact, cluster = score_epochs(
        topology, log, epoch_of_query, targets, found, topology.host_cluster
    )
    assert np.array_equal(exact, expected[0])
    assert np.array_equal(cluster, expected[1])


class TestIndexEqualsBlock:
    @settings(max_examples=150, deadline=None)
    @given(runs())
    def test_nearest_rtt_is_the_block_minimum_at_every_epoch(self, run):
        _check_index_against_block(run)

    @settings(max_examples=100, deadline=None)
    @given(runs(intra_en_latency_ms=50.0))
    def test_nearest_rtt_is_the_block_minimum_with_50ms_end_networks(self, run):
        # Hubs are at most 12 ms here: a cross-network member can be
        # nearer than a live end-network mate.
        _check_index_against_block(run)

    @settings(max_examples=150, deadline=None)
    @given(runs())
    def test_score_epochs_matches_block_and_scalar_scoring(self, run):
        _check_scoring_against_reference(run)

    @settings(max_examples=100, deadline=None)
    @given(runs(intra_en_latency_ms=50.0))
    def test_score_epochs_matches_reference_with_50ms_end_networks(self, run):
        _check_scoring_against_reference(run)

    def test_two_member_world(self):
        # One end-network of two peers: each is the other's nearest member.
        config = ClusteredConfig(n_clusters=1, end_networks_per_cluster=1)
        topology = ClusteredTopology.generate(config, np.zeros((1, 1)), seed=3)
        index = GroundTruthIndex(topology, np.array([1]))
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
        index = GroundTruthIndex(topology, members)
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


    def test_hub_path_beats_an_end_network_mate(self):
        # Two end-networks of one cluster with 0.01 ms hubs: the target's
        # cross-network neighbour (0.02 ms) is nearer than its mate (0.1 ms).
        config = ClusteredConfig(n_clusters=1, end_networks_per_cluster=3)
        topology = ClusteredTopology(
            config,
            en_cluster=np.zeros(3, dtype=int),
            en_hub_latency_ms=np.array([0.01, 0.01, 5.0]),
            host_en=np.repeat(np.arange(3), 2),
            core_ms=np.zeros((1, 1)),
        )
        target, mate, neighbour, far = 0, 1, 2, 4
        index = GroundTruthIndex(topology, np.array([mate, neighbour, far]))
        assert index.nearest_rtt(np.array([target]))[0] == 0.01 + 0.01
        # Without the neighbour the mate is nearest; the target's own
        # end-network holds the smallest hub, so the hub path runs
        # through the second-smallest.
        index.apply(np.array([], dtype=int), np.array([neighbour]))
        assert index.nearest_rtt(np.array([target]))[0] == config.intra_en_latency_ms
        index.apply(np.array([], dtype=int), np.array([mate]))
        assert index.nearest_rtt(np.array([target]))[0] == 0.01 + 5.0


class TestStaticTrialOffSeparation:
    def test_meridian_on_a_delta_one_world_matches_dense_scoring(self):
        """A static Meridian trial at ``delta`` = 1 scores query by query
        as the dense scalar reference does.  The world has hubs small
        enough that two cross-network hosts sit nearer each other than two
        end-network mates."""
        config = ClusteredConfig(
            n_clusters=4, end_networks_per_cluster=40, delta=1.0
        )
        world = build_clustered_oracle(config, seed=4)
        topology = world.topology
        hubs = [
            np.sort(topology.en_hub_latency_ms[topology.en_cluster == c])[:2].sum()
            for c in range(config.n_clusters)
        ]
        assert min(hubs) < config.intra_en_latency_ms
        sampling = SamplingSpec(n_targets=30)
        seed = 4
        record = QueryEngine().run_world_trial(
            world, MeridianSearch(), sampling=sampling, n_queries=80, seed=seed
        )
        # run_world_trial samples the targets first off the trial seed.
        targets = sampling.sample(world, np.random.default_rng(seed))
        members = np.setdiff1d(np.arange(topology.n_nodes), targets)
        dense = topology.full_matrix()
        expected = [
            score_single(dense, members, int(t), int(f), topology.host_cluster)
            for t, f in zip(record.targets, record.found)
        ]
        assert list(zip(record.exact_hit, record.cluster_hit)) == expected


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
        """Scoring a sparse world never falls back to O(members)."""
        world = build_sparse_clustered_world(
            ClusteredConfig(n_clusters=6, end_networks_per_cluster=20), seed=99
        )
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

    def test_static_scoring_on_sparse_world_builds_no_member_block(
        self, monkeypatch
    ):
        world = build_sparse_clustered_world(
            ClusteredConfig(n_clusters=6, end_networks_per_cluster=20), seed=99
        )
        calls = _spy_latency_block(monkeypatch)
        members = np.arange(10, world.topology.n_nodes)
        score_epochs(
            world.topology, MembershipLog(members), np.zeros(10, dtype=int),
            np.arange(10), members[:10],
        )
        assert calls == []

    def test_unseparated_world_builds_no_member_block(self, monkeypatch):
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
        assert calls == []


@pytest.mark.parametrize("epochs", [[-1], [3]])
def test_log_epoch_out_of_range_rejected(epochs):
    config = ClusteredConfig(n_clusters=2, end_networks_per_cluster=2)
    topology = ClusteredTopology.generate(config, np.zeros((2, 2)), seed=0)
    log = MembershipLog(np.arange(4))
    log.append_event([5], [0])
    with pytest.raises(DataError):
        score_epochs(topology, log, np.array(epochs), np.array([6]), np.array([1]))
