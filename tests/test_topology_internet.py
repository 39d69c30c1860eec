"""Tests for the router-level synthetic Internet."""

import networkx as nx
import numpy as np
import pytest

from repro.topology.elements import RouterKind
from repro.topology.graph import Route, RouterLevelTopology
from repro.topology.ip import ip_prefix
from repro.util.errors import SimulationError


class TestGenerationInvariants:
    def test_core_graph_connected(self, small_internet):
        assert nx.is_connected(small_internet.core_graph)

    def test_every_host_chain_ends_at_pop_router(self, small_internet):
        for host in small_internet.hosts:
            chain = small_internet.upward_chain(host.host_id)
            last_router = small_internet.router(chain[-1][0])
            assert last_router.kind == RouterKind.POP
            assert last_router.pop_id == host.pop_id

    def test_chain_cumulative_monotone(self, small_internet):
        for host in small_internet.hosts[:200]:
            chain = small_internet.upward_chain(host.host_id)
            cums = [c for _, c in chain]
            assert all(b > a for a, b in zip(cums, cums[1:]))

    def test_hub_latency_matches_en_record(self, small_internet):
        for host in small_internet.hosts[:100]:
            en = small_internet.end_network(host.en_id)
            hub = small_internet.hub_latency_ms(host.host_id)
            # Host hub latency = EN hub latency plus any internal hops.
            assert hub >= en.hub_latency_ms - 1e-9
            assert hub <= en.hub_latency_ms + 0.5

    def test_en_prefixes_are_24s_and_hosts_inside(self, small_internet):
        for host in small_internet.hosts[:200]:
            en = small_internet.end_network(host.en_id)
            assert en.prefix_length == 24
            assert ip_prefix(host.ip, 24) == ip_prefix(en.prefix_base, 24)

    def test_populations_present(self, small_internet):
        assert len(small_internet.peer_ids) > 50
        assert len(small_internet.dns_server_ids) > 10
        assert len(small_internet.vantage_ids) == 7
        assert small_internet.measurement_host_id is not None

    def test_multi_site_orgs_exist(self, small_internet):
        domains = {}
        for en in small_internet.end_networks:
            if en.is_home_network:
                continue
            domains.setdefault(en.organization, set()).add(en.pop_id)
        multi = [org for org, pops in domains.items() if len(pops) > 1]
        assert multi, "expected some organizations with sites at multiple PoPs"


class TestRouting:
    def test_route_symmetric_latency(self, small_internet):
        peers = small_internet.peer_ids
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = rng.choice(peers, size=2, replace=False)
            fwd = small_internet.route(int(a), int(b))
            rev = small_internet.route(int(b), int(a))
            assert fwd.latency_ms == pytest.approx(rev.latency_ms)
            assert fwd.routers == tuple(reversed(rev.routers))

    def test_route_to_self_empty(self, small_internet):
        peer = small_internet.peer_ids[0]
        route = small_internet.route(peer, peer)
        assert route.latency_ms == 0.0
        assert route.routers == ()

    def test_cumulative_parallel_to_routers(self, small_internet):
        peers = small_internet.peer_ids
        route = small_internet.route(peers[0], peers[-1])
        assert len(route.cumulative_ms) == len(route.routers)
        assert all(b > a for a, b in zip(route.cumulative_ms, route.cumulative_ms[1:]))
        assert route.cumulative_ms[-1] < route.latency_ms

    def test_same_en_pair_is_sub_millisecond(self, small_internet):
        by_en = {}
        for peer in small_internet.peer_ids:
            by_en.setdefault(small_internet.host(peer).en_id, []).append(peer)
        pairs = [v for v in by_en.values() if len(v) >= 2]
        assert pairs, "fixture should have multi-peer end-networks"
        a, b = pairs[0][:2]
        assert small_internet.route(a, b).latency_ms < 1.0

    def test_same_pop_pair_is_hub_scale(self, small_internet):
        by_pop = {}
        for peer in small_internet.peer_ids:
            by_pop.setdefault(small_internet.host(peer).pop_id, []).append(peer)
        candidates = [v for v in by_pop.values() if len(v) >= 2]
        found = False
        for group in candidates:
            for a in group:
                for b in group:
                    if a < b and not small_internet.same_end_network(a, b):
                        latency = small_internet.route(a, b).latency_ms
                        assert 1.0 < latency < 40.0
                        found = True
        assert found

    def test_cross_pop_latency_exceeds_intra(self, small_internet):
        peers = small_internet.peer_ids
        cross = [
            (a, b)
            for a in peers[:5]
            for b in peers[-5:]
            if small_internet.host(a).pop_id != small_internet.host(b).pop_id
        ]
        assert cross
        for a, b in cross[:5]:
            assert small_internet.route(a, b).latency_ms > 5.0

    def test_triangle_inequality_through_hub(self, small_internet):
        """Two same-PoP hosts are never farther apart than via their hubs."""
        by_pop = {}
        for peer in small_internet.peer_ids:
            by_pop.setdefault(small_internet.host(peer).pop_id, []).append(peer)
        group = max(by_pop.values(), key=len)
        for a in group[:4]:
            for b in group[:4]:
                if a >= b:
                    continue
                direct = small_internet.route(a, b).latency_ms
                via_hub = small_internet.hub_latency_ms(a) + small_internet.hub_latency_ms(b)
                assert direct <= via_hub + 0.3  # intra-PoP links allowance


class TestRouterAnchors:
    def test_pop_router_anchors_to_self(self, small_internet):
        pop = small_internet.pops[0]
        anchor = small_internet.router_anchor(pop.router_ids[0])
        assert anchor == (pop.router_ids[0], 0.0)

    def test_aggregation_router_anchor(self, small_internet):
        agg_ids = [
            r.router_id
            for r in small_internet.routers
            if r.kind == RouterKind.AGGREGATION
        ]
        anchor = small_internet.router_anchor(agg_ids[0])
        assert anchor is not None
        root, distance = anchor
        assert small_internet.router(root).kind == RouterKind.POP
        assert distance > 0

    def test_gateway_anchor(self, small_internet):
        campus = [en for en in small_internet.end_networks if not en.is_home_network]
        gw = campus[0].attachment_router_ids[0]
        anchor = small_internet.router_anchor(gw)
        assert anchor is not None


class TestHopLength:
    def test_hop_length_counts_links(self):
        route = Route(routers=(1, 2, 3), latency_ms=5.0)
        assert route.hop_length == 4


def _pairs_by_pop_router(internet):
    """Same-PoP-router pairs (incl. one host with itself) and cross-PoP pairs."""
    by_router: dict[int, list[int]] = {}
    for host in internet.hosts:
        router = internet.attachment_pop_router(host.host_id)
        by_router.setdefault(router, []).append(host.host_id)
    groups = [hosts for hosts in by_router.values() if len(hosts) >= 2]
    same = [(a, b) for hosts in groups for a in hosts[:6] for b in hosts[:6]]
    cross = [
        (first[i], second[-1 - i])
        for first, second in zip(groups, groups[1:])
        for i in range(min(3, len(first), len(second)))
    ]
    return same, cross


def _with_core_graph(internet, core_graph):
    """The same hosts and chains over a different core graph."""
    return RouterLevelTopology(
        internet.isps,
        internet.pops,
        internet.routers,
        internet.end_networks,
        internet.hosts,
        core_graph,
    )


class TestLatencyEntryPoints:
    """``latency_ms``, ``latency_block``, ``pair_latencies`` and ``route``
    read the same RTTs and fail the same way."""

    @pytest.mark.parametrize("kind", ["same_pop", "cross_pop"])
    def test_entry_points_agree_bit_for_bit(self, small_internet, kind):
        same, cross = _pairs_by_pop_router(small_internet)
        pairs = same if kind == "same_pop" else cross
        assert pairs
        scalar = np.array([small_internet.latency_ms(a, b) for a, b in pairs])
        routed = np.array([small_internet.route(a, b).latency_ms for a, b in pairs])
        listed = small_internet.pair_latencies(pairs)
        rows = np.array([a for a, _ in pairs])
        cols = np.array([b for _, b in pairs])
        block = small_internet.latency_block(rows, cols)
        diagonal = block[np.arange(len(pairs)), np.arange(len(pairs))]
        for values in (routed, listed, diagonal):
            assert np.array_equal(values, scalar)

    @pytest.fixture(scope="class")
    def cross_pair(self, small_internet):
        _, cross = _pairs_by_pop_router(small_internet)
        return cross[0]

    def _assert_every_entry_point_raises(self, world, a, b, match):
        with pytest.raises(SimulationError, match=match):
            world.latency_ms(a, b)
        with pytest.raises(SimulationError, match=match):
            world.latency_block(np.array([a]), np.array([b]))
        with pytest.raises(SimulationError, match=match):
            world.pair_latencies([(a, b)])
        with pytest.raises(SimulationError, match=match):
            world.route(a, b)

    def _assert_same_pop_still_answers(self, world, host):
        router = world.attachment_pop_router(host)
        mates = [
            h.host_id
            for h in world.hosts
            if world.attachment_pop_router(h.host_id) == router
        ]
        a, b = mates[0], mates[-1]
        expected = world.latency_ms(a, b)
        assert world.route(a, b).latency_ms == expected
        assert world.pair_latencies([(a, b)])[0] == expected
        assert world.latency_block(np.array([a]), np.array([b]))[0, 0] == expected

    def test_router_outside_core_graph(self, small_internet, cross_pair):
        a, b = cross_pair
        core = small_internet.core_graph.copy()
        core.remove_node(small_internet.attachment_pop_router(b))
        world = _with_core_graph(small_internet, core)
        self._assert_every_entry_point_raises(
            world, a, b, "is not in the core graph"
        )
        self._assert_same_pop_still_answers(world, b)

    def test_disconnected_core_graph(self, small_internet, cross_pair):
        a, b = cross_pair
        core = small_internet.core_graph.copy()
        router = small_internet.attachment_pop_router(b)
        core.remove_edges_from(list(core.edges(router)))
        world = _with_core_graph(small_internet, core)
        self._assert_every_entry_point_raises(
            world, a, b, "core graph is disconnected"
        )
        self._assert_same_pop_still_answers(world, b)
