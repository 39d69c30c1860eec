"""Tests for ping, TCP-ping, rockettrace and King simulations."""

import numpy as np
import pytest

from repro.measurement.king import KingConfig, KingEstimator
from repro.measurement.ping import Pinger
from repro.measurement.tcpping import TcpPinger
from repro.measurement.traceroute import (
    Rockettrace,
    TracerouteConfig,
    last_common_router,
)
from repro.topology.internet import SyntheticInternet
from repro.util.errors import SimulationError


def _with_core_graph(internet, core_graph):
    """The same Internet (hosts, chains, anchors) over another core graph."""
    return SyntheticInternet(
        internet.config,
        internet.isps,
        internet.pops,
        internet.routers,
        internet.end_networks,
        internet.hosts,
        core_graph,
        internet.agg_parent,
    )


class TestPinger:
    def test_ping_host_close_to_truth(self, small_internet):
        pinger = Pinger(small_internet, seed=0)
        mh = small_internet.measurement_host_id
        dns = small_internet.dns_server_ids[0]
        true = small_internet.route(mh, dns).latency_ms
        measured = pinger.ping_host(mh, dns)
        assert measured == pytest.approx(true, rel=0.05, abs=2.0)
        assert measured > 0

    def test_ping_router_on_own_chain(self, small_internet):
        pinger = Pinger(small_internet, seed=1)
        mh = small_internet.measurement_host_id
        router, cum = small_internet.upward_chain(mh)[-1]
        measured = pinger.ping_router(mh, router)
        assert measured == pytest.approx(cum, rel=0.1, abs=1.5)

    def test_ping_remote_pop_router(self, small_internet):
        pinger = Pinger(small_internet, seed=2)
        mh = small_internet.measurement_host_id
        remote_pop = small_internet.pops[-1]
        measured = pinger.ping_router(mh, remote_pop.router_ids[0])
        assert measured is not None
        assert measured > 1.0

    def test_source_pop_outside_core_graph_raises(self, small_internet):
        mh = small_internet.measurement_host_id
        src_pop_router = small_internet.upward_chain(mh)[-1][0]
        remote = next(
            pop.router_ids[0]
            for pop in small_internet.pops
            if pop.router_ids[0] != src_pop_router
        )
        core = small_internet.core_graph.copy()
        core.remove_node(src_pop_router)
        pinger = Pinger(_with_core_graph(small_internet, core), seed=4)
        with pytest.raises(SimulationError, match="is not in the core graph"):
            pinger.ping_router(mh, remote)
        # A router on the source's own chain needs no core distance.
        assert pinger.ping_router(mh, src_pop_router) is not None

    def test_unreachable_router_reads_none(self, small_internet):
        mh = small_internet.measurement_host_id
        src_pop_router = small_internet.upward_chain(mh)[-1][0]
        remote = next(
            pop.router_ids[0]
            for pop in small_internet.pops
            if pop.router_ids[0] != src_pop_router
        )
        core = small_internet.core_graph.copy()
        core.remove_edges_from(list(core.edges(remote)))
        pinger = Pinger(_with_core_graph(small_internet, core), seed=5)
        assert pinger.ping_router(mh, remote) is None
        core = small_internet.core_graph.copy()
        core.remove_node(remote)
        pinger = Pinger(_with_core_graph(small_internet, core), seed=6)
        assert pinger.ping_router(mh, remote) is None

    def test_unresponsive_host_returns_none(self, small_internet):
        silent = [
            h.host_id
            for h in small_internet.hosts
            if not h.responds_to_traceroute
        ]
        if not silent:
            pytest.skip("no silent hosts in fixture")
        pinger = Pinger(small_internet, seed=3)
        assert pinger.ping_host(small_internet.measurement_host_id, silent[0]) is None


class TestTcpPinger:
    def test_responding_peer_measured(self, small_internet):
        responding = [
            p
            for p in small_internet.peer_ids
            if small_internet.host(p).responds_to_tcp_ping
        ]
        tcp = TcpPinger(small_internet, seed=0)
        mh = small_internet.measurement_host_id
        true = small_internet.route(mh, responding[0]).latency_ms
        measured = tcp.measure(mh, responding[0])
        assert measured is not None
        assert measured >= true * 0.8  # processing delay only adds

    def test_unresponsive_peer_none(self, small_internet):
        silent = [
            p
            for p in small_internet.peer_ids
            if not small_internet.host(p).responds_to_tcp_ping
        ]
        tcp = TcpPinger(small_internet, seed=1)
        assert tcp.measure(small_internet.measurement_host_id, silent[0]) is None


class TestRockettrace:
    def test_hops_follow_route(self, small_internet):
        tracer = Rockettrace(
            small_internet, TracerouteConfig(router_response_rate=1.0), seed=0
        )
        mh = small_internet.measurement_host_id
        dns = small_internet.dns_server_ids[0]
        trace = tracer.trace(mh, dns)
        route = small_internet.route(mh, dns)
        assert tuple(h.router_id for h in trace.hops) == route.routers

    def test_hop_rtts_roughly_cumulative(self, small_internet):
        tracer = Rockettrace(
            small_internet, TracerouteConfig(router_response_rate=1.0), seed=1
        )
        mh = small_internet.measurement_host_id
        dns = small_internet.dns_server_ids[1]
        trace = tracer.trace(mh, dns)
        route = small_internet.route(mh, dns)
        for hop, cum in zip(trace.hops, route.cumulative_ms):
            assert hop.rtt_ms == pytest.approx(cum, rel=0.15, abs=1.5)

    def test_silent_routers_appear_as_gaps(self, small_internet):
        tracer = Rockettrace(
            small_internet, TracerouteConfig(router_response_rate=0.0), seed=2
        )
        mh = small_internet.measurement_host_id
        trace = tracer.trace(mh, small_internet.dns_server_ids[0])
        assert all(not hop.responded for hop in trace.hops)
        assert trace.last_valid_router() is None

    def test_edge_routers_unannotated(self, small_internet):
        tracer = Rockettrace(
            small_internet, TracerouteConfig(router_response_rate=1.0), seed=3
        )
        mh = small_internet.measurement_host_id
        campus_dns = small_internet.dns_server_ids[0]
        trace = tracer.trace(mh, campus_dns)
        kinds = {
            small_internet.router(h.router_id).kind.value: h.annotated
            for h in trace.hops
            if h.responded
        }
        if "edge" in kinds:
            assert kinds["edge"] is False

    def test_routes_from_bit_identical_to_scalar(self, small_internet):
        """The batched per-vantage route construction must not move a
        single float: same router tuples, same cumulative latencies."""
        src = small_internet.vantage_ids[0]
        dsts = list(small_internet.peer_ids[:120]) + [src]
        batched = small_internet.routes_from(src, dsts)
        for dst, route in zip(dsts, batched):
            scalar = small_internet.route(src, int(dst))
            assert route.routers == scalar.routers
            assert route.latency_ms == scalar.latency_ms
            assert route.cumulative_ms == scalar.cumulative_ms

    def test_trace_many_bit_identical_to_scalar_traces(self, small_internet):
        """Batched tracing replays the scalar noise stream exactly."""
        src = small_internet.vantage_ids[0]
        dsts = small_internet.peer_ids[:60]
        batched = Rockettrace(small_internet, seed=11).trace_many(src, dsts)
        scalar_tracer = Rockettrace(small_internet, seed=11)
        for dst, result in zip(dsts, batched):
            assert result == scalar_tracer.trace(src, int(dst))

    def test_closest_upstream_pop_matches_ground_truth_mostly(self, small_internet):
        tracer = Rockettrace(
            small_internet, TracerouteConfig(router_response_rate=1.0), seed=4
        )
        mh = small_internet.measurement_host_id
        correct = 0
        sample = small_internet.dns_server_ids[:30]
        for dns in sample:
            trace = tracer.trace(mh, dns)
            found = trace.closest_upstream_pop()
            if found is None:
                continue
            (as_name, _city), _hop = found
            truth_isp = small_internet.isps[small_internet.host(dns).isp_id].name
            correct += as_name == truth_isp
        # Misnamed routers cause a few errors; most must be right.
        assert correct >= int(0.8 * len(sample))

    def test_last_common_router_same_en(self, small_internet):
        by_en = {}
        for dns in small_internet.dns_server_ids:
            by_en.setdefault(small_internet.host(dns).en_id, []).append(dns)
        same_en = [v for v in by_en.values() if len(v) >= 2]
        if not same_en:
            pytest.skip("no co-located DNS pairs in fixture")
        a, b = same_en[0][:2]
        tracer = Rockettrace(
            small_internet, TracerouteConfig(router_response_rate=1.0), seed=5
        )
        mh = small_internet.measurement_host_id
        common = last_common_router(tracer.trace(mh, a), tracer.trace(mh, b))
        # Both servers share their EN gateway, which must be the turnaround.
        en = small_internet.end_network(small_internet.host(a).en_id)
        assert common == en.attachment_router_ids[0]

    def test_last_common_router_requires_same_source(self, small_internet):
        tracer = Rockettrace(small_internet, seed=6)
        va, vb = small_internet.vantage_ids[:2]
        dns = small_internet.dns_server_ids[0]
        assert last_common_router(tracer.trace(va, dns), tracer.trace(vb, dns)) is None


class TestKing:
    def test_same_domain_unusable(self, small_internet):
        by_domain = {}
        for dns in small_internet.dns_server_ids:
            domain = small_internet.host(dns).domain
            by_domain.setdefault(domain, []).append(dns)
        same = [v for v in by_domain.values() if len(v) >= 2]
        king = KingEstimator(small_internet, seed=0)
        if same:
            a, b = same[0][:2]
            assert not king.usable(a, b)
            assert king.measure(a, b) is None

    def test_estimate_in_plausible_range(self, small_internet):
        king = KingEstimator(small_internet, seed=1)
        dns = small_internet.dns_server_ids
        pairs = [
            (a, b)
            for i, a in enumerate(dns[:12])
            for b in dns[i + 1 : 12]
            if king.usable(a, b)
        ]
        assert pairs
        for a, b in pairs[:10]:
            true = small_internet.route(a, b).latency_ms
            measured = king.measure(a, b)
            assert 0 < measured < 5 * true + 20

    def test_lag_inflates_short_pairs_on_average(self, small_internet):
        config = KingConfig(alternate_path_base=0.0, alternate_path_slope_per_ms=0.0)
        king = KingEstimator(small_internet, config=config, seed=2)
        by_en = {}
        for dns in small_internet.dns_server_ids:
            by_en.setdefault(small_internet.host(dns).en_id, []).append(dns)
        # Cross-EN same-PoP pairs (sub-15 ms): lag should inflate them.
        dns_ids = small_internet.dns_server_ids
        pairs = [
            (a, b)
            for i, a in enumerate(dns_ids[:40])
            for b in dns_ids[i + 1 : 40]
            if king.usable(a, b)
            and small_internet.same_pop(a, b)
            and not small_internet.same_end_network(a, b)
        ]
        if len(pairs) < 3:
            pytest.skip("not enough same-PoP DNS pairs")
        ratios = []
        for a, b in pairs:
            true = small_internet.route(a, b).latency_ms
            ratios.append(king.measure(a, b) / true)
        assert np.mean(ratios) > 1.0
