"""Five studies beyond the paper's figures, each pinned to its claim.

Three ablations of parameters the paper fixes (Meridian's beta, nodes per
ring, peers per end-network), every latency-only scheme head to head on
one noisy clustered world, and the Section 5 mechanisms against the
latency-only fallback.  Worlds and seeds are fixed, so each assertion
checks one deterministic run.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    PicSearch,
    RandomProbeSearch,
    TapestrySearch,
    TiersSearch,
    VivaldiGreedySearch,
)
from repro.core.finder import NearestPeerFinder
from repro.core.lowerbound import success_probability_with_budget
from repro.harness import QueryEngine, SamplingSpec, get_scenario
from repro.latency.builder import build_clustered_oracle
from repro.meridian.overlay import MeridianConfig
from repro.topology.clustered import ClusteredConfig
from repro.topology.internet import InternetConfig, SyntheticInternet


def test_beta_trades_probes_for_accuracy():
    """Wider beta spends probes on accuracy, but cannot beat clustering."""
    world = build_clustered_oracle(
        ClusteredConfig(n_clusters=25, end_networks_per_cluster=25, delta=0.2),
        seed=41,
    )
    records = [
        QueryEngine().run_world_trial(
            world,
            MeridianSearch(MeridianConfig(beta=beta)),
            sampling=SamplingSpec(n_targets=80),
            n_queries=300,
            seed=41,
        )
        for beta in (0.25, 0.5, 0.75, 0.9)
    ]
    accuracy = [r.exact_rate for r in records]
    assert records[-1].mean_probes_per_query > records[0].mean_probes_per_query
    assert accuracy[-1] >= accuracy[0] - 0.05
    assert max(accuracy) < 0.8


def test_ring_size_is_the_in_cluster_budget():
    """Bigger rings help, but stay below the analytic budget ceiling."""
    end_networks = 60
    world = build_clustered_oracle(
        ClusteredConfig(
            n_clusters=10, end_networks_per_cluster=end_networks, delta=0.2
        ),
        seed=43,
    )
    sizes = (4, 8, 16, 32)
    accuracy = [
        QueryEngine()
        .run_world_trial(
            world,
            MeridianSearch(
                MeridianConfig(ring_size=k, candidate_pool=max(48, 2 * k))
            ),
            sampling=SamplingSpec(n_targets=80),
            n_queries=300,
            seed=43,
        )
        .exact_rate
        for k in sizes
    ]
    assert accuracy[-1] > accuracy[0]
    # The query must also enter the right cluster and know the mate.
    for measured, k in zip(accuracy, sizes):
        assert measured <= success_probability_with_budget(end_networks, k) + 0.1


def test_more_peers_per_end_network_ease_exact_hits():
    """With one peer per end-network most targets have no mate at all."""
    closest = []
    for peers in (1, 2, 4, 8):
        world = build_clustered_oracle(
            ClusteredConfig(
                n_clusters=10,
                end_networks_per_cluster=50,
                peers_per_end_network=peers,
                delta=0.2,
            ),
            seed=47,
        )
        record = QueryEngine().run_world_trial(
            world,
            MeridianSearch(),
            sampling=SamplingSpec(n_targets=80),
            n_queries=250,
            seed=47,
        )
        closest.append(record.exact_rate)
    assert closest[-1] > closest[0]


def test_no_latency_only_scheme_beats_the_clustering_condition():
    """Every scheme misses the mate; Meridian still reaches the cluster."""
    records = QueryEngine().compare(
        get_scenario("paper-comparison"),
        (
            MeridianSearch,
            KargerRuhlSearch,
            TapestrySearch,
            PicSearch,
            VivaldiGreedySearch,
            TiersSearch,
            BeaconSearch,
            RandomProbeSearch,
        ),
    )
    by_name = {r.scheme: r for r in records}
    for name, record in by_name.items():
        assert record.exact_rate < 0.9, name
    meridian = by_name["meridian"]
    assert meridian.cluster_rate > meridian.exact_rate


def test_ucl_dominates_the_latency_only_fallback():
    """Section 5: the UCL mechanism finds more exact mates than latency."""
    internet = SyntheticInternet.generate(
        InternetConfig(
            n_isps=4,
            pops_per_isp_low=2,
            pops_per_isp_high=4,
            en_per_pop_low=10,
            en_per_pop_high=40,
            mean_peers_per_campus_en=2.0,
        ),
        seed=61,
    )
    peers = np.array(internet.peer_ids)
    targets = np.random.default_rng(61).choice(peers, size=40, replace=False)
    target_set = set(int(t) for t in targets)
    members = [int(p) for p in peers if int(p) not in target_set]

    def exact_rate(mechanisms) -> float:
        finder = NearestPeerFinder(internet, mechanisms=mechanisms, seed=61)
        finder.join_all(members[:250])
        exact = 0
        for target in targets:
            result = finder.find(int(target))
            _, truth_latency = finder.true_nearest(int(target))
            if result.found is not None:
                found = internet.route(int(target), result.found).latency_ms
                exact += found <= truth_latency + 1e-9
        return exact / len(targets)

    ucl = exact_rate(("ucl",))
    assert ucl > exact_rate(())
    assert exact_rate(("multicast", "registry", "ucl", "prefix")) >= ucl - 0.1
