"""Tests for the Section 5 mechanisms: UCL, prefix, multicast, registry."""

import numpy as np
import pytest

from repro.dht.chord import ChordRing
from repro.dht.kvstore import DhtKeyValueStore
from repro.mechanisms.composite import CompositeFinder
from repro.mechanisms.ipprefix import (
    PrefixMap,
    close_pairs_from_internet,
    prefix_error_rates,
)
from repro.mechanisms.multicast import MulticastSearch
from repro.mechanisms.registry import EndNetworkRegistry
from repro.mechanisms.ucl import DictBackend, UclMap, compute_ucl
from repro.util.errors import DataError


def multi_peer_en_pairs(internet, count=5):
    """(peer, en-mate) pairs from multi-peer end-networks."""
    by_en = {}
    for peer in internet.peer_ids:
        by_en.setdefault(internet.host(peer).en_id, []).append(peer)
    pairs = [tuple(v[:2]) for v in by_en.values() if len(v) >= 2]
    return pairs[:count]


class TestComputeUcl:
    def test_ucl_contains_upstream_routers(self, small_internet):
        peer = small_internet.peer_ids[0]
        ucl = compute_ucl(small_internet, peer, seed=1)
        assert ucl, "UCL should not be empty"
        chain_routers = {r for r, _ in small_internet.upward_chain(peer)}
        ucl_routers = {entry.router_id for entry in ucl}
        assert ucl_routers & chain_routers

    def test_ucl_latencies_positive(self, small_internet):
        peer = small_internet.peer_ids[1]
        for entry in compute_ucl(small_internet, peer, seed=2):
            assert entry.latency_ms > 0

    def test_max_routers_cap(self, small_internet):
        peer = small_internet.peer_ids[2]
        ucl = compute_ucl(small_internet, peer, max_routers=2, seed=3)
        # Each traceroute contributes at most 2 hops, across 3 targets.
        assert len(ucl) <= 6


class TestUclMap:
    def test_same_en_peers_discover_each_other(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet)
        assert pairs
        ucl_map = UclMap(small_internet)
        hits = 0
        for a, b in pairs:
            ucl_map.insert_peer(a, compute_ucl(small_internet, a, seed=a))
            found, latency, stats = ucl_map.find_nearest(
                b, compute_ucl(small_internet, b, seed=b), seed=b
            )
            if found == a:
                hits += 1
            ucl_map.remove_peer(a)
        assert hits >= len(pairs) - 1  # allow one trace-noise miss

    def test_estimate_filter_discards_far_candidates(self, small_internet):
        peers = small_internet.peer_ids
        far_pairs = [
            (a, b)
            for a in peers[:3]
            for b in peers[-3:]
            if small_internet.host(a).pop_id != small_internet.host(b).pop_id
        ]
        a, b = far_pairs[0]
        ucl_map = UclMap(small_internet)
        ucl_map.insert_peer(a, compute_ucl(small_internet, a, seed=a))
        found, latency, stats = ucl_map.find_nearest(
            b,
            compute_ucl(small_internet, b, seed=b),
            max_estimate_ms=10.0,
            seed=b,
        )
        # A cross-PoP pair shares no upstream router, or is estimate-filtered.
        assert found is None

    def test_dht_backend_equivalent_to_dict(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet, count=2)
        a, b = pairs[0]
        ring = ChordRing.build(list(range(16)))
        dht_map = UclMap(small_internet, backend=DhtKeyValueStore(ring, seed=0))
        dict_map = UclMap(small_internet, backend=DictBackend())
        ucl_a = compute_ucl(small_internet, a, seed=a)
        ucl_b = compute_ucl(small_internet, b, seed=b)
        for m in (dht_map, dict_map):
            m.insert_peer(a, ucl_a)
        found_dht, _, _ = dht_map.find_nearest(b, ucl_b, seed=1)
        found_dict, _, _ = dict_map.find_nearest(b, ucl_b, seed=1)
        assert found_dht == found_dict


class TestPrefixMap:
    def test_same_en_peers_share_24(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet)
        prefix_map = PrefixMap(small_internet, prefix_length=24)
        a, b = pairs[0]
        prefix_map.insert_peer(a)
        assert a in prefix_map.candidates(b)

    def test_find_nearest_probes_candidates(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet)
        a, b = pairs[0]
        prefix_map = PrefixMap(small_internet, prefix_length=24)
        prefix_map.insert_peer(a)
        found, latency, probes = prefix_map.find_nearest(b, seed=0)
        assert found == a
        assert probes >= 1

    def test_bad_prefix_length(self, small_internet):
        with pytest.raises(DataError):
            PrefixMap(small_internet, prefix_length=0)


class TestPrefixErrorRates:
    def test_hand_built_case(self):
        # Peers 0,1 share a /24 and are close; peer 2 shares the /24 but is
        # far; peer 3 is close to 0 but in a different /8.
        ips = np.array(
            [
                (10 << 24) | (1 << 8) | 1,
                (10 << 24) | (1 << 8) | 2,
                (10 << 24) | (1 << 8) | 3,
                (99 << 24) | 1,
            ],
            dtype=np.uint64,
        )
        close = {(0, 1), (0, 3)}
        rates = prefix_error_rates(ips, close, [24])[0]
        # Peer 0: far = {2}; far sharing /24 = {2} -> FP 1.0.
        # Peer 0: close = {1, 3}; not sharing = {3} -> FN 0.5.
        assert rates.median_false_positive_rate > 0
        assert 0 < rates.median_false_negative_rate < 1

    def test_matches_the_per_peer_loop(self):
        """The array pass equals the per-peer neighbour-set loop exactly,
        with pairs given in either order and repeated."""
        rng = np.random.default_rng(3)
        n = 300
        ips = ((10 << 24) | rng.integers(0, 1 << 12, size=n) << 4).astype(np.uint64)
        drawn = rng.integers(0, n, size=(900, 2))
        close = {(int(i), int(j)) for i, j in drawn if i != j}
        lengths = [8, 16, 20, 22, 24, 28]
        neighbours = {i: set() for i in range(n)}
        for i, j in close:
            neighbours[i].add(j)
            neighbours[j].add(i)
        for length, rates in zip(lengths, prefix_error_rates(ips, close, lengths)):
            prefix = (ips >> np.uint64(32 - length)).tolist()
            fp, fn = [], []
            for i in range(n):
                sharing = sum(prefix[k] == prefix[i] for k in range(n)) - 1
                close_sharing = sum(prefix[j] == prefix[i] for j in neighbours[i])
                far_total = (n - 1) - len(neighbours[i])
                if far_total > 0:
                    fp.append((sharing - close_sharing) / far_total)
                if neighbours[i]:
                    fn.append((len(neighbours[i]) - close_sharing) / len(neighbours[i]))
            assert rates.median_false_positive_rate == float(np.median(fp))
            assert rates.median_false_negative_rate == float(np.median(fn))
            assert rates.peers_with_close_peer == len(fn)
        as_array = prefix_error_rates(ips, np.array(sorted(close)), lengths)
        assert as_array == prefix_error_rates(ips, close, lengths)

    def test_bad_pairs_rejected(self):
        ips = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(DataError):
            prefix_error_rates(ips, {(0, 5)}, [16])

    def test_close_pairs_from_internet_symmetric_indices(self, small_internet):
        peers = small_internet.peer_ids[:60]
        close = close_pairs_from_internet(small_internet, peers, seed=0)
        for i, j in close:
            assert i < j
            assert 0 <= i < len(peers) and 0 <= j < len(peers)


class TestMulticast:
    def test_reaches_only_same_en(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet)
        search = MulticastSearch(
            small_internet, multicast_enabled_fraction=1.0, seed=0
        )
        peer_set = set(small_internet.peer_ids)
        a, b = pairs[0]
        reachable = search.reachable_peers(a, peer_set)
        for peer in reachable:
            assert small_internet.host(peer).en_id == small_internet.host(a).en_id

    def test_disabled_multicast_finds_nothing(self, small_internet):
        search = MulticastSearch(
            small_internet, multicast_enabled_fraction=0.0, seed=0
        )
        peer = small_internet.peer_ids[0]
        found, latency = search.find_nearest(peer, set(small_internet.peer_ids))
        assert found is None

    def test_vlan_fragmentation_partitions(self, small_internet):
        full = MulticastSearch(
            small_internet,
            multicast_enabled_fraction=1.0,
            vlan_fragmentation_threshold=10**9,
            seed=0,
        )
        fragmented = MulticastSearch(
            small_internet,
            multicast_enabled_fraction=1.0,
            vlan_fragmentation_threshold=1,
            vlans_in_large_en=4,
            seed=0,
        )
        peer_set = set(small_internet.peer_ids)
        total_full = sum(
            len(full.reachable_peers(p, peer_set))
            for p in small_internet.peer_ids[:100]
        )
        total_fragmented = sum(
            len(fragmented.reachable_peers(p, peer_set))
            for p in small_internet.peer_ids[:100]
        )
        assert total_fragmented <= total_full


class TestRegistry:
    def test_join_lookup_roundtrip(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet)
        registry = EndNetworkRegistry(small_internet, deployment_threshold=2)
        a, b = pairs[0]
        assert registry.join(a)
        assert a in registry.lookup(b)
        found, latency = registry.find_nearest(b)
        assert found == a
        assert latency < 1.0

    def test_threshold_limits_deployment(self, small_internet):
        sparse = EndNetworkRegistry(small_internet, deployment_threshold=100)
        assert sparse.stats().end_networks_with_registry == 0

    def test_leave_requires_membership(self, small_internet):
        registry = EndNetworkRegistry(small_internet, deployment_threshold=1)
        with pytest.raises(DataError):
            registry.leave(small_internet.peer_ids[0])

    def test_coverage_stats(self, small_internet):
        registry = EndNetworkRegistry(small_internet, deployment_threshold=2)
        stats = registry.stats()
        assert 0 <= stats.peer_coverage <= 1


class TestComposite:
    def test_stage_attribution_and_quality(self, small_internet):
        pairs = multi_peer_en_pairs(small_internet)
        finder = CompositeFinder(
            small_internet,
            multicast=MulticastSearch(
                small_internet, multicast_enabled_fraction=1.0, seed=0
            ),
            registry=EndNetworkRegistry(small_internet),
            ucl_map=UclMap(small_internet),
            seed=0,
        )
        a, b = pairs[0]
        finder.register_peer(a)
        result = finder.find_nearest(b)
        assert result.stage in ("multicast", "registry", "ucl")
        assert result.found == a

    def test_no_mechanism_no_fallback_returns_none(self, small_internet):
        finder = CompositeFinder(small_internet, seed=0)
        result = finder.find_nearest(small_internet.peer_ids[0])
        assert result.stage == "none"
        assert result.found is None
