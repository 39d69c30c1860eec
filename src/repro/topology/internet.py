"""Generator for the router-level synthetic Internet.

Builds the full last-hop structure of the paper's Figure 1, embedded in a
small world map:

* **ISPs** own PoPs placed at named cities; PoP routers share an AS and a
  city (the property rockettrace-based PoP identification exploits).
* **ISP backbones** connect each ISP's PoPs; ISPs interconnect at IXPs in
  major cities, so cross-ISP routes traverse realistic detours.
* **Aggregation forests** under each PoP: shared aggregation routers that
  end-network uplinks merge into ("connections funnel in from the end-hosts
  and end-networks, possibly merging as they get closer to the PoP").
* **End-networks** (campus/corporate, with gateways and internal switches)
  and **home hosts** (no local network) attach to the forest.  Each
  end-network's hub latency is its PoP's mean scaled by a per-PoP spread
  factor, so PoPs with tight spreads satisfy the clustering condition and
  PoPs with loose spreads do not — both occur, as in the wild.
* **Addressing**: ISPs carve blocks out of one consumer /8 (plus a separate
  provider-independent /8 for ~8 % of campus networks), PoPs get sub-blocks,
  end-networks get /24s.  This drives the Fig 11 prefix-heuristic behaviour.
* **Populations**: Azureus-like peers (with a TCP-ping response model),
  recursive DNS servers (with per-organization domains, some organizations
  spanning multiple sites — a confound the paper observed), vantage-point
  hosts at the Table 1 cities, and a single measurement host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.topology.cities import City, WORLD_CITIES, city_by_name, city_code, major_cities
from repro.topology.elements import (
    EndNetworkRecord,
    HostKind,
    HostRecord,
    IspRecord,
    PopRecord,
    RouterKind,
    RouterRecord,
)
from repro.topology.graph import RouterLevelTopology
from repro.topology.ip import PrefixAllocator
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng
from repro.util.validate import require_in_range, require_positive


@dataclass(frozen=True)
class InternetConfig:
    """Knobs of the synthetic Internet generator.

    Defaults produce a laptop-friendly Internet (~1k end-networks, ~2k
    hosts); the measurement experiments scale the population knobs up.
    """

    n_isps: int = 6
    pops_per_isp_low: int = 3
    pops_per_isp_high: int = 8
    en_per_pop_low: int = 6
    en_per_pop_high: int = 48
    home_en_fraction: float = 0.5
    # Hub-latency model: per-PoP mean ~ U[low, high]; per-EN factor
    # ~ U[1 - spread, 1 + spread] with the spread drawn per PoP.
    mean_hub_latency_low_ms: float = 3.0
    mean_hub_latency_high_ms: float = 7.0
    pop_spread_low: float = 0.08
    pop_spread_high: float = 0.45
    # Attachment depth: probability of attaching directly to a PoP router,
    # to a level-1 aggregation router, or to a level-2 aggregation router.
    agg_depth_weights: tuple[float, float, float] = (0.35, 0.45, 0.2)
    end_networks_per_l1_agg: int = 6
    # Populations.
    peer_probability_home: float = 0.8
    mean_peers_per_campus_en: float = 1.3
    max_peers_per_campus_en: int = 5
    dns_probability_campus: float = 0.6
    max_dns_per_en: int = 2
    multi_site_org_fraction: float = 0.06
    # Measurement behaviour.
    tcp_response_rate: float = 0.45
    traceroute_response_rate: float = 0.9
    router_misname_rate: float = 0.03
    # Addressing.
    pi_address_fraction: float = 0.08
    consumer_slash8: int = 83  # all ISP space lives in 83.0.0.0/8
    pi_slash8: int = 128  # provider-independent space (campus/edu)

    def __post_init__(self) -> None:
        require_positive(self.n_isps, "n_isps")
        require_positive(self.pops_per_isp_low, "pops_per_isp_low")
        if self.pops_per_isp_high < self.pops_per_isp_low:
            raise ConfigurationError("pops_per_isp_high < pops_per_isp_low")
        if self.en_per_pop_high < self.en_per_pop_low:
            raise ConfigurationError("en_per_pop_high < en_per_pop_low")
        require_in_range(self.home_en_fraction, "home_en_fraction", 0.0, 1.0)
        require_in_range(self.tcp_response_rate, "tcp_response_rate", 0.0, 1.0)
        require_in_range(self.pi_address_fraction, "pi_address_fraction", 0.0, 1.0)
        if abs(sum(self.agg_depth_weights) - 1.0) > 1e-9:
            raise ConfigurationError("agg_depth_weights must sum to 1")


@dataclass
class _Builder:
    """Mutable state threaded through the generation stages."""

    config: InternetConfig
    rng: np.random.Generator
    isps: list[IspRecord] = field(default_factory=list)
    pops: list[PopRecord] = field(default_factory=list)
    routers: list[RouterRecord] = field(default_factory=list)
    end_networks: list[EndNetworkRecord] = field(default_factory=list)
    hosts: list[HostRecord] = field(default_factory=list)
    core: nx.Graph = field(default_factory=nx.Graph)
    pop_city: dict[int, City] = field(default_factory=dict)
    pop_primary_router: dict[int, int] = field(default_factory=dict)
    pop_routers: dict[int, list[int]] = field(default_factory=dict)
    pop_mean_hub: dict[int, float] = field(default_factory=dict)
    pop_spread: dict[int, float] = field(default_factory=dict)
    pop_en_count: dict[int, int] = field(default_factory=dict)
    pop_allocator: dict[int, "_PopAddressCursor"] = field(default_factory=dict)
    # Shared aggregation forest: child router -> (parent router, link RTT ms).
    agg_parent: dict[int, tuple[int, float]] = field(default_factory=dict)
    pop_l1_aggs: dict[int, list[int]] = field(default_factory=dict)
    pop_l2_aggs: dict[int, list[int]] = field(default_factory=dict)
    org_counter: int = 0

    def add_router(
        self,
        kind: RouterKind,
        isp_id: int,
        pop_id: int | None,
        city: City,
        role: str,
    ) -> int:
        router_id = len(self.routers)
        as_name = self.isps[isp_id].name if isp_id >= 0 else "ix"
        named_city = city.name
        # rockettrace infers AS/city from the router's DNS name; a small
        # fraction of names are misconfigured (paper Section 3.1 caveat).
        if self.rng.random() < self.config.router_misname_rate:
            named_city = str(self.rng.choice([c.name for c in WORLD_CITIES]))
        dns_name = f"{role}{router_id}.{city_code(named_city)}.{as_name}.net"
        self.routers.append(
            RouterRecord(
                router_id=router_id,
                kind=kind,
                isp_id=isp_id,
                pop_id=pop_id,
                as_name=as_name,
                city=named_city,
                dns_name=dns_name,
            )
        )
        return router_id

    def agg_path_to_pop(self, attach_router: int) -> tuple[list[int], list[float]]:
        """Routers and link RTTs from ``attach_router`` up to its PoP router.

        The attach router itself is the first entry; the PoP router is last.
        """
        routers = [attach_router]
        links: list[float] = []
        current = attach_router
        while current in self.agg_parent:
            parent, link_ms = self.agg_parent[current]
            routers.append(parent)
            links.append(link_ms)
            current = parent
        return routers, links

    def next_org(self) -> str:
        self.org_counter += 1
        return f"org{self.org_counter}"


class SyntheticInternet(RouterLevelTopology):
    """A generated router-level Internet with peer/DNS/vantage populations."""

    def __init__(
        self,
        config: InternetConfig,
        isps: list[IspRecord],
        pops: list[PopRecord],
        routers: list[RouterRecord],
        end_networks: list[EndNetworkRecord],
        hosts: list[HostRecord],
        core_graph: nx.Graph,
        agg_parent: dict[int, tuple[int, float]],
    ) -> None:
        super().__init__(isps, pops, routers, end_networks, hosts, core_graph)
        self.config = config
        self.agg_parent = agg_parent
        # gateway router id -> (pop_router_id, rtt below it); built lazily by
        # router_anchor (the old per-call linear scan over every end-network
        # dominated the ping pipelines).
        self._edge_anchor_cache: dict[int, tuple[int, float]] | None = None
        self.peer_ids = [h.host_id for h in hosts if h.kind == HostKind.PEER]
        self.dns_server_ids = [h.host_id for h in hosts if h.kind == HostKind.DNS_SERVER]
        self.vantage_ids = [h.host_id for h in hosts if h.kind == HostKind.VANTAGE]
        measurement = [h.host_id for h in hosts if h.kind == HostKind.MEASUREMENT]
        self.measurement_host_id = measurement[0] if measurement else None

    def responsive_peer_ids(self) -> list[int]:
        """Peers that answered either probe (TCP ping or traceroute).

        The paper's 22,796-peer measurement set: the peers the Section 3.2
        pipeline and Figs 10-11 study, in host-id order.
        """
        return [
            h.host_id
            for h in self.hosts
            if h.kind == HostKind.PEER
            and (h.responds_to_tcp_ping or h.responds_to_traceroute)
        ]

    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        config: InternetConfig | None = None,
        seed: int | np.random.Generator | None = None,
        vantage_cities: tuple[str, ...] | None = None,
    ) -> "SyntheticInternet":
        """Generate a fresh Internet.

        ``vantage_cities`` defaults to the paper's Table 1 locations (see
        :mod:`repro.measurement.vantage`); pass an empty tuple to skip
        vantage hosts entirely.
        """
        config = config or InternetConfig()
        rng = make_rng(seed)
        b = _Builder(config=config, rng=rng)

        _generate_isps_and_pops(b)
        _generate_backbone(b)
        _allocate_addresses(b)
        _generate_agg_forests(b)
        _generate_end_networks(b)
        _merge_multi_site_orgs(b)
        _populate_hosts(b)
        if vantage_cities is None:
            from repro.measurement.vantage import TABLE1_VANTAGE_CITIES

            vantage_cities = TABLE1_VANTAGE_CITIES
        _place_vantage_hosts(b, vantage_cities)

        return cls(
            config=config,
            isps=b.isps,
            pops=b.pops,
            routers=b.routers,
            end_networks=b.end_networks,
            hosts=b.hosts,
            core_graph=b.core,
            agg_parent=b.agg_parent,
        )

    # -- router anchoring (used by ping) ------------------------------------

    def router_anchor(self, router_id: int) -> tuple[int, float] | None:
        """Map a router to ``(pop_router_id, rtt_to_it)`` for ping routing.

        PoP/core/IXP routers anchor to themselves at distance 0; aggregation
        routers climb the shared forest; end-network gateways anchor through
        their network's attachment chain.  Returns ``None`` for routers that
        cannot be anchored (campus-internal switches).
        """
        record = self.routers[router_id]
        if record.kind in (RouterKind.POP, RouterKind.CORE, RouterKind.IXP):
            return router_id, 0.0
        if router_id in self.agg_parent:
            total = 0.0
            current = router_id
            while current in self.agg_parent:
                parent, link_ms = self.agg_parent[current]
                total += link_ms
                current = parent
            return current, total
        if record.kind == RouterKind.EDGE:
            if self._edge_anchor_cache is None:
                cache: dict[int, tuple[int, float]] = {}
                for en in self.end_networks:
                    if en.attachment_router_ids:
                        cache.setdefault(
                            en.attachment_router_ids[0],
                            (
                                en.attachment_router_ids[-1],
                                float(sum(en.attachment_latencies_ms[1:])),
                            ),
                        )
                self._edge_anchor_cache = cache
            return self._edge_anchor_cache.get(router_id)
        return None

    def describe(self) -> str:
        """One-line summary used in experiment logs."""
        return (
            f"SyntheticInternet(isps={len(self.isps)}, pops={len(self.pops)}, "
            f"end_networks={len(self.end_networks)}, hosts={len(self.hosts)}, "
            f"peers={len(self.peer_ids)}, dns={len(self.dns_server_ids)})"
        )


# --------------------------------------------------------------------------- #
# generation stages
# --------------------------------------------------------------------------- #


def _generate_isps_and_pops(b: _Builder) -> None:
    cfg, rng = b.config, b.rng
    cities = list(WORLD_CITIES)
    for isp_id in range(cfg.n_isps):
        b.isps.append(
            IspRecord(isp_id=isp_id, name=f"isp{isp_id}", as_number=7000 + isp_id)
        )
        n_pops = int(rng.integers(cfg.pops_per_isp_low, cfg.pops_per_isp_high + 1))
        # ISPs concentrate in a home region but reach everywhere: weight the
        # city choice toward a home continent.
        home = rng.choice(["NA", "EU", "AS"])
        weights = np.array([3.0 if c.continent == home else 1.0 for c in cities])
        weights /= weights.sum()
        chosen = rng.choice(
            len(cities), size=min(n_pops, len(cities)), replace=False, p=weights
        )
        for city_idx in chosen:
            city = cities[city_idx]
            pop_id = len(b.pops)
            n_routers = int(rng.integers(1, 4))
            router_ids = [
                b.add_router(RouterKind.POP, isp_id, pop_id, city, role="cr")
                for _ in range(n_routers)
            ]
            b.pops.append(
                PopRecord(
                    pop_id=pop_id,
                    isp_id=isp_id,
                    city=city.name,
                    router_ids=tuple(router_ids),
                    x=city.x,
                    y=city.y,
                )
            )
            b.pop_city[pop_id] = city
            b.pop_primary_router[pop_id] = router_ids[0]
            b.pop_routers[pop_id] = router_ids
            b.pop_mean_hub[pop_id] = float(
                rng.uniform(cfg.mean_hub_latency_low_ms, cfg.mean_hub_latency_high_ms)
            )
            b.pop_spread[pop_id] = float(
                rng.uniform(cfg.pop_spread_low, cfg.pop_spread_high)
            )
            b.pop_en_count[pop_id] = int(
                rng.integers(cfg.en_per_pop_low, cfg.en_per_pop_high + 1)
            )
            # Intra-PoP links: routers in a PoP are "quite close together".
            for i, r1 in enumerate(router_ids):
                for r2 in router_ids[i + 1 :]:
                    b.core.add_edge(r1, r2, latency_ms=float(rng.uniform(0.05, 0.25)))


def _generate_backbone(b: _Builder) -> None:
    rng = b.rng
    pops_by_isp: dict[int, list[int]] = {}
    for pop in b.pops:
        pops_by_isp.setdefault(pop.isp_id, []).append(pop.pop_id)
    # ISP backbone: full mesh among each ISP's PoP primary routers.
    for pop_ids in pops_by_isp.values():
        for i, pa in enumerate(pop_ids):
            for pb in pop_ids[i + 1 :]:
                ca, cb = b.pop_city[pa], b.pop_city[pb]
                detour = float(rng.uniform(1.05, 1.35))
                rtt = 2.0 * ca.distance_ms(cb) * detour + float(rng.uniform(0.2, 0.8))
                b.core.add_edge(
                    b.pop_primary_router[pa],
                    b.pop_primary_router[pb],
                    latency_ms=rtt,
                )
    # IXPs at major cities; ISPs with a PoP in that city connect locally.
    ixp_router_by_city: dict[str, int] = {}
    for city in major_cities():
        ixp_id = b.add_router(RouterKind.IXP, -1, None, city, role="ixp")
        ixp_router_by_city[city.name] = ixp_id
    # Tier-1 transit mesh between exchange points, so any two ISPs can reach
    # each other even when they share no exchange city.
    ixp_cities = list(major_cities())
    for i, ca in enumerate(ixp_cities):
        for cb in ixp_cities[i + 1 :]:
            rtt = 2.0 * ca.distance_ms(cb) * float(rng.uniform(1.05, 1.25)) + 0.3
            b.core.add_edge(
                ixp_router_by_city[ca.name], ixp_router_by_city[cb.name], latency_ms=rtt
            )
    for pop in b.pops:
        ixp = ixp_router_by_city.get(pop.city)
        if ixp is not None:
            b.core.add_edge(
                b.pop_primary_router[pop.pop_id],
                ixp,
                latency_ms=float(rng.uniform(0.3, 1.0)),
            )
        else:
            # Transit uplink to the nearest exchange city, so routes do not
            # take continent-scale detours through the ISP's home region.
            city = b.pop_city[pop.pop_id]
            nearest = min(major_cities(), key=lambda c: c.distance_ms(city))
            rtt = 2.0 * city.distance_ms(nearest) * float(rng.uniform(1.05, 1.25)) + 0.5
            b.core.add_edge(
                b.pop_primary_router[pop.pop_id],
                ixp_router_by_city[nearest.name],
                latency_ms=rtt,
            )


class _PopAddressCursor:
    """Hands a PoP /24s drawn as scattered chunks from its ISP's block.

    Real ISPs do not give a PoP one contiguous block: BRAS pools receive
    chunks of consecutive /24s as demand grows, interleaved with every
    other PoP of the ISP.  Consequently a /14 of ISP space mixes cities
    (false positives for the prefix heuristic) while two end-networks of
    the same PoP usually share nothing longer than the ISP prefix (false
    negatives) — the no-sweet-spot structure of Fig 11.
    """

    def __init__(
        self,
        isp_block: PrefixAllocator,
        rng: np.random.Generator,
        expected_networks: int,
    ) -> None:
        self._isp_block = isp_block
        self._rng = rng
        self._chunk: PrefixAllocator | None = None
        # Chunks never exceed the PoP's expected demand (small PoPs get
        # small chunks, so little address space is stranded).
        self._lengths = [
            length
            for length in (22, 21, 20, 19)
            if (1 << (24 - length)) <= max(4, expected_networks)
        ] or [22]

    def allocate(self, length: int) -> PrefixAllocator:
        if length != 24:
            raise ConfigurationError("PoP cursors hand out /24s only")
        if self._chunk is None or self._chunk.remaining < 256:
            chunk_length = int(self._rng.choice(self._lengths))
            self._chunk = self._isp_block.allocate(chunk_length)
        return self._chunk.allocate(24)


def _allocate_addresses(b: _Builder) -> None:
    """Size ISP blocks to demand; PoPs draw interleaved chunks from them.

    ISP space concentrates in a handful of consecutive consumer /8s (as
    real broadband space does), overflowing into the next /8 when one
    fills; this concentration drives the prefix heuristic's high
    false-positive rate at short prefix lengths (Fig 11).
    """
    cfg = b.config
    pools = [PrefixAllocator((cfg.consumer_slash8 + k) << 24, 8) for k in range(8)]
    pool_index = 0

    def allocate_isp_block(length: int) -> PrefixAllocator:
        nonlocal pool_index
        while pool_index < len(pools):
            try:
                return pools[pool_index].allocate(length)
            except Exception:
                pool_index += 1
        raise ConfigurationError("consumer address pools exhausted")

    pops_by_isp: dict[int, list[int]] = {}
    for pop in b.pops:
        pops_by_isp.setdefault(pop.isp_id, []).append(pop.pop_id)
    for isp in b.isps:
        pop_ids = pops_by_isp.get(isp.isp_id, [])
        # /24s needed: each PoP's end-network count plus headroom for
        # vantage attachments and chunk-alignment waste.
        need = sum(max(8, 2 * b.pop_en_count[p]) for p in pop_ids)
        # Headroom: chunk-alignment waste is bounded by one max chunk per PoP.
        isp_need = max(64, int(1.25 * need) + 32 * max(1, len(pop_ids)))
        isp_length = max(9, 24 - math.ceil(math.log2(isp_need)))
        isp_block = allocate_isp_block(isp_length)
        for pop_id in pop_ids:
            b.pop_allocator[pop_id] = _PopAddressCursor(
                isp_block, b.rng, expected_networks=b.pop_en_count[pop_id]
            )


def _generate_agg_forests(b: _Builder) -> None:
    """Shared aggregation routers that end-network uplinks merge into.

    Aggregation fan-out is heterogeneous across PoPs: most PoPs spread
    their uplinks over many small aggregation routers, a minority funnel
    them into a few fat concentrators (big BRAS/DSLAM sites) —
    ``end_networks_per_l1_agg`` is the fan-out of the fattest tier.  The
    fat tail is what produces the paper's largest peer clusters.
    """
    cfg, rng = b.config, b.rng
    for pop in b.pops:
        pop_id = pop.pop_id
        city = b.pop_city[pop_id]
        n_en = b.pop_en_count[pop_id]
        fanout_scale = float(
            rng.choice([0.04, 0.1, 0.25, 1.0], p=[0.35, 0.27, 0.15, 0.23])
        )
        per_l1 = max(2, int(round(cfg.end_networks_per_l1_agg * fanout_scale)))
        n_l1 = max(1, n_en // per_l1)
        l1 = []
        for _ in range(n_l1):
            agg = b.add_router(RouterKind.AGGREGATION, pop.isp_id, pop_id, city, "agg")
            parent = int(rng.choice(b.pop_routers[pop_id]))
            b.agg_parent[agg] = (parent, float(rng.uniform(0.15, 0.5)))
            l1.append(agg)
        n_l2 = max(1, n_l1 // 2)
        l2 = []
        for _ in range(n_l2):
            agg = b.add_router(RouterKind.AGGREGATION, pop.isp_id, pop_id, city, "agg")
            parent = int(rng.choice(l1))
            b.agg_parent[agg] = (parent, float(rng.uniform(0.1, 0.4)))
            l2.append(agg)
        b.pop_l1_aggs[pop_id] = l1
        b.pop_l2_aggs[pop_id] = l2


def _make_end_network(
    b: _Builder,
    pop: PopRecord,
    hub_latency_ms: float,
    is_home: bool,
    organization: str | None = None,
    pi_block: PrefixAllocator | None = None,
) -> EndNetworkRecord:
    """Create one end-network attached to the PoP's aggregation forest."""
    cfg, rng = b.config, b.rng
    pop_id = pop.pop_id
    city = b.pop_city[pop_id]
    depth = int(rng.choice(3, p=list(cfg.agg_depth_weights)))
    if depth == 0:
        attach = int(rng.choice(b.pop_routers[pop_id]))
    elif depth == 1:
        attach = int(rng.choice(b.pop_l1_aggs[pop_id]))
    else:
        attach = int(rng.choice(b.pop_l2_aggs[pop_id]))
    shared_routers, shared_links = b.agg_path_to_pop(attach)

    if is_home:
        # A home host's access link runs straight to the attach router.
        routers = list(shared_routers)
        access = max(0.3, hub_latency_ms - sum(shared_links))
        links = [access] + shared_links
    else:
        # Campus network: gateway router, then the access link upstream.
        gw = b.add_router(RouterKind.EDGE, pop.isp_id, pop_id, city, "gw")
        routers = [gw] + list(shared_routers)
        lan_link = float(rng.uniform(0.02, 0.08))
        access = max(0.3, hub_latency_ms - sum(shared_links) - lan_link)
        links = [lan_link, access] + shared_links

    if pi_block is not None:
        block = pi_block
    else:
        block = b.pop_allocator[pop_id].allocate(24)
    en_id = len(b.end_networks)
    record = EndNetworkRecord(
        en_id=en_id,
        pop_id=pop_id,
        isp_id=pop.isp_id,
        organization=organization or (f"home{en_id}" if is_home else b.next_org()),
        hub_latency_ms=float(sum(links)),
        attachment_router_ids=tuple(routers),
        attachment_latencies_ms=tuple(links),
        prefix_base=block.base_ip,
        prefix_length=block.base_length,
        is_home_network=is_home,
    )
    b.end_networks.append(record)
    return record


def _generate_end_networks(b: _Builder) -> None:
    cfg, rng = b.config, b.rng
    pi_pool = PrefixAllocator(cfg.pi_slash8 << 24, 8)
    for pop in b.pops:
        spread = b.pop_spread[pop.pop_id]
        for _ in range(b.pop_en_count[pop.pop_id]):
            is_home = bool(rng.random() < cfg.home_en_fraction)
            factor = float(rng.uniform(1.0 - spread, 1.0 + spread))
            hub = b.pop_mean_hub[pop.pop_id] * factor
            pi_block = None
            if not is_home and rng.random() < cfg.pi_address_fraction:
                pi_block = pi_pool.allocate(24)
            _make_end_network(b, pop, hub, is_home, pi_block=pi_block)


def _merge_multi_site_orgs(b: _Builder) -> None:
    """Give some organizations multiple sites (different PoPs, same domain).

    The paper noticed same-domain DNS-server pairs in different geographic
    locations; those pairs pollute the intra-domain latency distribution and
    must exist in our synthetic study too.
    """
    cfg, rng = b.config, b.rng
    campus = [en for en in b.end_networks if not en.is_home_network]
    n_merges = int(len(campus) * cfg.multi_site_org_fraction)
    if n_merges == 0 or len(campus) < 2:
        return
    for _ in range(n_merges):
        a, c = rng.choice(len(campus), size=2, replace=False)
        primary, secondary = campus[int(a)], campus[int(c)]
        if primary.pop_id == secondary.pop_id:
            continue
        merged = EndNetworkRecord(
            en_id=secondary.en_id,
            pop_id=secondary.pop_id,
            isp_id=secondary.isp_id,
            organization=primary.organization,
            hub_latency_ms=secondary.hub_latency_ms,
            attachment_router_ids=secondary.attachment_router_ids,
            attachment_latencies_ms=secondary.attachment_latencies_ms,
            prefix_base=secondary.prefix_base,
            prefix_length=secondary.prefix_length,
            is_home_network=secondary.is_home_network,
        )
        b.end_networks[secondary.en_id] = merged
        campus[int(c)] = merged


def _internal_switches(b: _Builder, en: EndNetworkRecord) -> list[int]:
    """Create campus-internal switch routers hosts may hang off."""
    if en.is_home_network:
        return []
    n = int(b.rng.integers(1, 4))
    city = b.pop_city[en.pop_id]
    return [
        b.add_router(RouterKind.EDGE, en.isp_id, en.pop_id, city, "sw")
        for _ in range(n)
    ]


def _add_host(
    b: _Builder,
    en: EndNetworkRecord,
    kind: HostKind,
    switches: list[int],
    domain: str | None = None,
    always_responds: bool = False,
) -> int:
    cfg, rng = b.config, b.rng
    host_id = len(b.hosts)
    block = PrefixAllocator(en.prefix_base, en.prefix_length)
    ip = block.random_address(rng)
    internal: tuple[tuple[int, float], ...] = ()
    if switches and rng.random() < 0.7:
        switch = int(rng.choice(switches))
        internal = ((switch, float(rng.uniform(0.02, 0.08))),)
    responds = always_responds or bool(rng.random() < cfg.tcp_response_rate)
    b.hosts.append(
        HostRecord(
            host_id=host_id,
            kind=kind,
            en_id=en.en_id,
            pop_id=en.pop_id,
            isp_id=en.isp_id,
            ip=ip,
            domain=domain,
            responds_to_tcp_ping=responds,
            responds_to_traceroute=always_responds
            or bool(rng.random() < cfg.traceroute_response_rate),
            internal_path=internal,
        )
    )
    return host_id


def _populate_hosts(b: _Builder) -> None:
    cfg, rng = b.config, b.rng
    for en in list(b.end_networks):
        switches = _internal_switches(b, en)
        if en.is_home_network:
            if rng.random() < cfg.peer_probability_home:
                _add_host(b, en, HostKind.PEER, switches)
            continue
        n_peers = min(
            cfg.max_peers_per_campus_en, int(rng.poisson(cfg.mean_peers_per_campus_en))
        )
        for _ in range(n_peers):
            _add_host(b, en, HostKind.PEER, switches)
        if rng.random() < cfg.dns_probability_campus:
            n_dns = int(rng.integers(1, cfg.max_dns_per_en + 1))
            domain = f"{en.organization}.net"
            for _ in range(n_dns):
                # DNS servers live in machine rooms: always reachable.
                _add_host(b, en, HostKind.DNS_SERVER, [], domain=domain, always_responds=True)


def _place_vantage_hosts(b: _Builder, vantage_cities: tuple[str, ...]) -> None:
    """Attach vantage hosts (and one measurement host) at given cities.

    Each vantage gets its own well-connected end-network (universities have
    short hub latencies) on the PoP nearest to the city.
    """
    rng = b.rng

    def attach(kind: HostKind, city_name: str) -> None:
        city = city_by_name(city_name)
        pop = min(b.pops, key=lambda p: city.distance_ms(b.pop_city[p.pop_id]))
        en = _make_end_network(
            b,
            pop,
            hub_latency_ms=float(rng.uniform(0.8, 2.0)),
            is_home=False,
            organization=f"vantage-{city_name.lower().replace(' ', '-')}",
        )
        _add_host(b, en, kind, switches=[], always_responds=True)

    for name in vantage_cities:
        attach(HostKind.VANTAGE, name)
    # The single rockettrace measurement host (Section 3.1) sits at Ithaca,
    # the authors' institution.
    attach(HostKind.MEASUREMENT, "Ithaca")
