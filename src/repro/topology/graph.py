"""Router-level topology: storage and routing.

:class:`RouterLevelTopology` holds the generated Internet (see
:mod:`repro.topology.internet` for the generator) and answers the two
questions the measurement pipelines need:

* :meth:`route` — the router path and RTT between two hosts, following the
  paper's path model: up each host's attachment chain to the lowest common
  router if one exists below/at the PoP, otherwise up to the PoP and across
  the core.
* :meth:`upward_chain` — a host's chain of upstream routers with cumulative
  latencies (the ground truth behind UCLs and traceroute prefixes).

Within a PoP the attachment structure is a forest, so lowest-common-router
discovery is a linear scan of the two chains (against a per-host position
map precomputed at construction time).  Across PoPs routes use all-pairs
core-graph shortest paths, computed once at construction with
``scipy.sparse.csgraph`` — the core graph is small (PoP/IXP routers
only), so the dense distance/predecessor matrices are cheap and make every
core lookup O(1).

Latency questions take one of two paths, which agree bit for bit:

* :meth:`latency_ms` — the scalar path for one pair: the chain scan, else
  ``hub(a) + core + hub(b)``.  It is also the reference the kernel is
  tested against.
* :meth:`_latencies` — the one array kernel, over broadcastable host-id
  arrays.  :meth:`latency_matrix`, :meth:`latency_block`,
  :meth:`latencies_from` and :meth:`pair_latencies` all call it.

On every path a router outside the core graph reads as an infinite core
distance, like a disconnected core graph; :meth:`_core_error` names the
cause of either when a pair needs the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.topology.elements import (
    EndNetworkRecord,
    HostRecord,
    IspRecord,
    PopRecord,
    RouterRecord,
)
from repro.util.errors import DataError, SimulationError


@dataclass(frozen=True)
class Route:
    """A host-to-host route: the ordered router ids crossed, and the RTT.

    ``cumulative_ms[i]`` is the RTT from the source host to ``routers[i]``;
    traceroute hop latencies come straight from these.
    """

    routers: tuple[int, ...]
    latency_ms: float
    cumulative_ms: tuple[float, ...] = ()

    @property
    def hop_length(self) -> int:
        """Number of links on the path (= routers + 1 for host-host routes).

        This matches the paper's Fig 10 metric: "if all peers tracked
        upstream routers n hops away, they would be able to discover all
        peers 2n hops away" — a pair whose route crosses ``2n - 1`` routers
        is ``2n`` hops apart.
        """
        return len(self.routers) + 1


class RouterLevelTopology:
    """The generated router-level Internet (see module docstring)."""

    def __init__(
        self,
        isps: list[IspRecord],
        pops: list[PopRecord],
        routers: list[RouterRecord],
        end_networks: list[EndNetworkRecord],
        hosts: list[HostRecord],
        core_graph: nx.Graph,
    ) -> None:
        self.isps = isps
        self.pops = pops
        self.routers = routers
        self.end_networks = end_networks
        self.hosts = hosts
        self.core_graph = core_graph
        # host_id -> tuple of (router_id, cumulative RTT ms from host),
        # ordered host-outward and ending at the attachment PoP router.
        self._upward: dict[int, tuple[tuple[int, float], ...]] = {}
        # host_id -> {router_id: (chain index, cumulative RTT ms)} — the
        # lookup route() used to rebuild per call.
        self._upward_pos: dict[int, dict[int, tuple[int, float]]] = {}
        self._build_upward_chains()
        self._build_core_paths()

    # -- construction helpers ------------------------------------------------

    def _build_upward_chains(self) -> None:
        pop_router = np.empty(len(self.hosts), dtype=int)
        hub_ms = np.empty(len(self.hosts), dtype=float)
        for host in self.hosts:
            en = self.end_networks[host.en_id]
            chain: list[tuple[int, float]] = []
            cumulative = 0.0
            for router_id, link_ms in host.internal_path:
                cumulative += link_ms
                chain.append((router_id, cumulative))
            for router_id, link_ms in zip(
                en.attachment_router_ids, en.attachment_latencies_ms
            ):
                cumulative += link_ms
                chain.append((router_id, cumulative))
            if not chain:
                raise DataError(f"host {host.host_id} has an empty upward chain")
            self._upward[host.host_id] = tuple(chain)
            self._upward_pos[host.host_id] = {
                router: (idx, cum) for idx, (router, cum) in enumerate(chain)
            }
            pop_router[host.host_id] = chain[-1][0]
            hub_ms[host.host_id] = chain[-1][1]
        self._host_pop_router = pop_router
        self._host_hub_ms = hub_ms
        # Padded per-host chain arrays for the vectorised lowest-common-
        # router scan (-1 pads past each chain's end; chains are short, so
        # the (n_hosts, max_depth) arrays are tiny).
        depth = max(len(chain) for chain in self._upward.values())
        chain_router = np.full((len(self.hosts), depth), -1, dtype=int)
        chain_cum = np.zeros((len(self.hosts), depth), dtype=float)
        for host_id, chain in self._upward.items():
            for idx, (router, cum) in enumerate(chain):
                chain_router[host_id, idx] = router
                chain_cum[host_id, idx] = cum
        self._chain_router = chain_router
        self._chain_cum = chain_cum

    # -- basic accessors -------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def host(self, host_id: int) -> HostRecord:
        return self.hosts[host_id]

    def router(self, router_id: int) -> RouterRecord:
        return self.routers[router_id]

    def end_network(self, en_id: int) -> EndNetworkRecord:
        return self.end_networks[en_id]

    def pop(self, pop_id: int) -> PopRecord:
        return self.pops[pop_id]

    def upward_chain(self, host_id: int) -> tuple[tuple[int, float], ...]:
        """(router_id, cumulative RTT) pairs from ``host_id`` to its PoP router."""
        return self._upward[host_id]

    def attachment_pop_router(self, host_id: int) -> int:
        """The PoP router id a host's chain terminates at."""
        return int(self._host_pop_router[host_id])

    def hub_latency_ms(self, host_id: int) -> float:
        """RTT from a host to its PoP router (its hub latency)."""
        return float(self._host_hub_ms[host_id])

    # -- core routing ----------------------------------------------------------

    def _build_core_paths(self) -> None:
        """All-pairs shortest paths over the (small) core graph."""
        import scipy.sparse
        import scipy.sparse.csgraph

        nodes = sorted(self.core_graph.nodes)
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        row, col, data = [], [], []
        for u, v, attrs in self.core_graph.edges(data=True):
            row.append(index[u])
            col.append(index[v])
            data.append(float(attrs["latency_ms"]))
        adjacency = scipy.sparse.csr_matrix(
            (data, (row, col)), shape=(n, n)
        )
        dist, pred = scipy.sparse.csgraph.dijkstra(
            adjacency, directed=False, return_predecessors=True
        )
        self._core_nodes: list[int] = nodes
        self._core_index: dict[int, int] = index
        # Row/column ``n`` (all inf) stands for every router outside the
        # core graph, so a missing router reads like a disconnected pair
        # and only a query that needs that host's core position fails.
        self._core_dist = np.pad(dist, (0, 1), constant_values=np.inf)
        self._core_pred = pred
        self._host_core_index = np.array(
            [index.get(r, n) for r in self._host_pop_router.tolist()], dtype=int
        )

    def _core_row(self, router: int) -> int:
        """Core-matrix index of a router (``n`` when outside the core graph)."""
        return self._core_index.get(router, len(self._core_nodes))

    def _core_error(self, a: int, b: int) -> SimulationError:
        """Why PoP routers ``a`` and ``b`` have an infinite core distance."""
        for router in (int(a), int(b)):
            if router not in self._core_index:
                return SimulationError(f"router {router} is not in the core graph")
        return SimulationError(f"core graph is disconnected: {int(a)} .. {int(b)}")

    def core_distance_ms(self, a: int, b: int) -> float | None:
        """Shortest-path RTT from core router ``a`` to router ``b``.

        ``None`` means ``b`` is not a core router, or the core graph does
        not connect the two.  A source ``a`` outside the core graph is a
        malformed topology, not an unreachable target, and raises.
        """
        ia = self._core_row(a)
        if ia == len(self._core_nodes):
            raise self._core_error(a, b)
        distance = self._core_dist[ia, self._core_row(b)]
        return None if math.isinf(distance) else float(distance)

    def _core_route(self, a: int, b: int) -> tuple[float, list[int]]:
        """RTT and router path between two core-graph routers."""
        if a == b:
            return 0.0, [a]
        ia, ib = self._core_row(a), self._core_row(b)
        distance = self._core_dist[ia, ib]
        if math.isinf(distance):
            raise self._core_error(a, b)
        path = [b]
        j = ib
        while j != ia:
            j = int(self._core_pred[ia, j])
            path.append(self._core_nodes[j])
        path.reverse()
        return float(distance), path

    # -- host-to-host routing ----------------------------------------------------

    def route(self, a: int, b: int) -> Route:
        """Router path and RTT between hosts ``a`` and ``b``.

        Follows the paper's model: if the two attachment chains share a
        router below or at the PoP, the message turns around at the first
        (lowest) shared router; otherwise it goes up to each host's PoP
        router and across the core graph.  One implementation serves both
        the scalar and the batched path: this is :meth:`routes_from` with
        a single destination.
        """
        return self.routes_from(a, [b])[0]

    def routes_from(
        self, src: int, dst_hosts: "np.ndarray | list[int]"
    ) -> list[Route]:
        """Routes from one source to many destinations, sharing source work.

        The one routing implementation (:meth:`route` is the
        single-destination call).  Per-source work is shared across
        destinations: the source's upward-chain prefix and the core
        segment (shortest-path reconstruction plus the per-edge
        ``core_graph`` latency lookups, historically the per-pair
        dominant cost) are computed once per distinct destination PoP
        router instead of once per destination host — the same router
        tuples and the same floats in the same association order as a
        per-pair loop.  This is the fast path for traceroute campaigns,
        where one vantage traces thousands of hosts whose routes fan out
        over a handful of PoPs.
        """
        chain_a = self._upward[src]
        # destination PoP router -> (prefix routers, prefix cums,
        # cumulative RTT at that router, core latency), exactly the state
        # route() rebuilds per call before descending the b-chain.
        core_cache: dict[int, tuple[list[int], list[float], float, float]] = {}
        routes: list[Route] = []
        for dst in dst_hosts:
            dst = int(dst)
            if dst == src:
                routes.append(Route(routers=(), latency_ms=0.0))
                continue
            chain_b = self._upward[dst]
            position_b = self._upward_pos[dst]
            shared = None
            for idx_a, (router, cum_a) in enumerate(chain_a):
                hit = position_b.get(router)
                if hit is not None:
                    shared = idx_a, cum_a, hit
                    break
            if shared is not None:
                # Same-PoP pair: the chains are short, keep the scalar scan.
                idx_a, cum_a, (idx_b, lca_cum_b) = shared
                routers = [r for r, _ in chain_a[: idx_a + 1]]
                cums = [c for _, c in chain_a[: idx_a + 1]]
                for j in range(idx_b - 1, -1, -1):
                    routers.append(chain_b[j][0])
                    cums.append(cum_a + (lca_cum_b - chain_b[j][1]))
                routes.append(
                    Route(
                        routers=tuple(routers),
                        latency_ms=cum_a + lca_cum_b,
                        cumulative_ms=tuple(cums),
                    )
                )
                continue
            router_a, cum_a = chain_a[-1]
            router_b, cum_b = chain_b[-1]
            cached = core_cache.get(router_b)
            if cached is None:
                core_latency, core_path = self._core_route(router_a, router_b)
                prefix_routers = [r for r, _ in chain_a]
                prefix_cums = [c for _, c in chain_a]
                running = cum_a
                for prev, node in zip(core_path, core_path[1:]):
                    running += float(
                        self.core_graph.edges[prev, node]["latency_ms"]
                    )
                    prefix_routers.append(node)
                    prefix_cums.append(running)
                cached = (prefix_routers, prefix_cums, running, core_latency)
                core_cache[router_b] = cached
            prefix_routers, prefix_cums, running, core_latency = cached
            routers = list(prefix_routers)
            cums = list(prefix_cums)
            for j in range(len(chain_b) - 2, -1, -1):
                routers.append(chain_b[j][0])
                cums.append(running + (cum_b - chain_b[j][1]))
            routes.append(
                Route(
                    routers=tuple(routers),
                    latency_ms=cum_a + core_latency + cum_b,
                    cumulative_ms=tuple(cums),
                )
            )
        return routes

    def _lca_pair_latencies(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised RTTs for host pairs that share an attachment router.

        The grouped-array form of the scalar lowest-common-router scan in
        :meth:`latency_ms`: compare the two padded chain arrays as a
        ``(pairs, depth, depth)`` match cube, take the first hit in a-chain
        order (each router appears at most once per chain, so the a-major
        ``argmax`` lands on exactly the router the scalar scan returns) and
        add the two cumulative latencies at the hit — the same two floats
        in the same order, so results are bit-identical.  Works in bounded
        chunks to keep the cube small.
        """
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        out = np.empty(a.size, dtype=float)
        depth = self._chain_router.shape[1]
        chunk = max(1, (1 << 18) // max(1, depth * depth))
        for start in range(0, a.size, chunk):
            sl = slice(start, min(a.size, start + chunk))
            ra = self._chain_router[a[sl]]  # (P, depth)
            rb = self._chain_router[b[sl]]
            match = (ra[:, :, None] == rb[:, None, :]) & (ra >= 0)[:, :, None]
            flat = match.reshape(match.shape[0], -1)
            if not flat.any(axis=1).all():
                bad = int(np.flatnonzero(~flat.any(axis=1))[0])
                raise SimulationError(
                    f"hosts {int(a[sl][bad])} and {int(b[sl][bad])} share an "
                    "attachment PoP router but no chain router"
                )
            first = flat.argmax(axis=1)
            ia, ib = np.divmod(first, depth)
            out[sl] = (
                self._chain_cum[a[sl], ia] + self._chain_cum[b[sl], ib]
            )
        out[a == b] = 0.0
        return out

    def latency_ms(self, a: int, b: int) -> float:
        """RTT between two hosts: the scalar path (oracle interface).

        The lowest shared chain router if there is one, else up to both
        PoP routers and across the core — the same two or three floats, in
        the same order, that :meth:`_latencies` adds, without building a
        route or any array.
        """
        if a == b:
            return 0.0
        position_b = self._upward_pos[b]
        for router, cum_a in self._upward[a]:
            hit = position_b.get(router)
            if hit is not None:
                return cum_a + hit[1]
        distance = self._core_dist[self._host_core_index[a], self._host_core_index[b]]
        if math.isinf(distance):
            raise self._core_error(self._host_pop_router[a], self._host_pop_router[b])
        return float(self._host_hub_ms[a] + distance + self._host_hub_ms[b])

    @property
    def n_nodes(self) -> int:
        """Oracle interface: hosts are the nodes."""
        return self.n_hosts

    # -- bulk latency (batch oracle interface) ----------------------------------

    def _latencies(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """RTTs between broadcastable host-id arrays: the one array kernel.

        A pair under different PoP routers costs
        ``(hub(a) + core(pop(a), pop(b))) + hub(b)``, the scalar path's
        association order.  Pairs under the same PoP router may share a
        lower router, so those cells are rewritten by the grouped-array
        lowest-common-router scan (:meth:`_lca_pair_latencies`).  Per-host
        lookups index ``a`` and ``b`` as given — a ``(rows, 1)`` and a
        ``(1, cols)`` array cost ``rows + cols`` lookups — and only the
        sums broadcast.  Equal ids yield 0.
        """
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        out = (
            self._host_hub_ms[a]
            + self._core_dist[self._host_core_index[a], self._host_core_index[b]]
        ) + self._host_hub_ms[b]
        same_top = self._host_pop_router[a] == self._host_pop_router[b]
        if same_top.any():
            a_cells, b_cells = np.broadcast_arrays(a, b)
            cells = np.nonzero(same_top)
            out[cells] = self._lca_pair_latencies(a_cells[cells], b_cells[cells])
        # Same-PoP cells never need the core, so any inf left is a pair the
        # core graph cannot join.
        unroutable = np.isinf(out)
        if unroutable.any():
            a_cells, b_cells = np.broadcast_arrays(a, b)
            first = tuple(np.argwhere(unroutable)[0])
            raise self._core_error(
                self._host_pop_router[a_cells[first]],
                self._host_pop_router[b_cells[first]],
            )
        return out

    def latency_matrix(
        self,
        host_ids: np.ndarray | list[int],
        col_host_ids: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """The ``host_ids × col_host_ids`` RTT block (square when no columns)."""
        rows = np.asarray(host_ids, dtype=int)
        cols = rows if col_host_ids is None else np.asarray(col_host_ids, dtype=int)
        return self._latencies(rows[:, None], cols[None, :])

    def pair_latencies(
        self, pairs: "list[tuple[int, int]] | np.ndarray"
    ) -> np.ndarray:
        """Element-wise RTTs for an explicit ``(k, 2)`` host-pair list.

        The sparse counterpart of :meth:`latency_matrix`, for pipelines
        that need specific pairs rather than a dense block.
        """
        pairs_arr = np.asarray(pairs, dtype=int).reshape(-1, 2)
        return self._latencies(pairs_arr[:, 0], pairs_arr[:, 1])

    def latencies_from(
        self, a: int, members: np.ndarray | None = None
    ) -> np.ndarray:
        """Batch oracle interface: RTTs from host ``a`` to ``members``."""
        if members is None:
            members = np.arange(self.n_hosts)
        return self._latencies(a, members)

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Batch oracle interface: the ``rows × cols`` RTT block."""
        return self.latency_matrix(rows, cols)

    # -- ground truth helpers ---------------------------------------------------

    def same_end_network(self, a: int, b: int) -> bool:
        return self.hosts[a].en_id == self.hosts[b].en_id

    def same_pop(self, a: int, b: int) -> bool:
        return self.hosts[a].pop_id == self.hosts[b].pop_id
