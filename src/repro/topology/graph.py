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
core-graph shortest paths, computed once with ``scipy.sparse.csgraph`` the
first time any cross-PoP question is asked — the core graph is small
(PoP/IXP routers only), so the dense distance/predecessor matrices are
cheap and make every subsequent core lookup O(1).

Bulk latency questions (the measurement pipelines ask for *every* host
pair) go through :meth:`latency_matrix`, which assembles whole RTT blocks
from the precomputed per-host hub latencies and the core distance matrix
instead of routing pair by pair.
"""

from __future__ import annotations

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
        # Per-host attachment summaries (arrays indexed by host id).
        self._host_pop_router: np.ndarray = np.empty(0, dtype=int)
        self._host_hub_ms: np.ndarray = np.empty(0, dtype=float)
        # All-pairs core-graph state, built lazily by _ensure_core_paths().
        self._core_nodes: list[int] | None = None
        self._core_index: dict[int, int] | None = None
        self._core_dist: np.ndarray | None = None
        self._core_pred: np.ndarray | None = None
        self._host_core_index: np.ndarray | None = None
        self._build_upward_chains()

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

    def _ensure_core_paths(self) -> None:
        """All-pairs shortest paths over the (small) core graph, once."""
        if self._core_dist is not None:
            return
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
        self._core_nodes = nodes
        self._core_index = index
        self._core_dist = dist
        self._core_pred = pred
        # Host -> core-matrix row of its attachment PoP router; -1 marks a
        # router absent from the core graph, surfaced as a SimulationError
        # only when a query actually needs that host's core position (the
        # pre-batch code was lazy in the same way).
        self._host_core_index = np.array(
            [index.get(r, -1) for r in self._host_pop_router.tolist()], dtype=int
        )

    def core_distance_ms(self, a: int, b: int) -> float | None:
        """Shortest-path RTT between two core routers, ``None`` if unknown.

        ``None`` means ``a`` or ``b`` is not a core router, or the core
        graph does not connect them.
        """
        self._ensure_core_paths()
        assert self._core_index is not None and self._core_dist is not None
        ia = self._core_index.get(a)
        ib = self._core_index.get(b)
        if ia is None or ib is None:
            return None
        distance = self._core_dist[ia, ib]
        if np.isinf(distance):
            return None
        return float(distance)

    def _core_route(self, a: int, b: int) -> tuple[float, list[int]]:
        """RTT and router path between two core-graph routers."""
        if a == b:
            return 0.0, [a]
        self._ensure_core_paths()
        assert (
            self._core_index is not None
            and self._core_dist is not None
            and self._core_pred is not None
            and self._core_nodes is not None
        )
        ia = self._core_index.get(a)
        ib = self._core_index.get(b)
        if ia is None:
            raise SimulationError(f"router {a} is not in the core graph")
        if ib is None:
            raise SimulationError(f"router {b} is not in the core graph")
        distance = self._core_dist[ia, ib]
        if np.isinf(distance):
            raise SimulationError(f"core graph is disconnected: {a} .. {b}")
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

    def _pair_latency_ms(self, a: int, b: int) -> float:
        """RTT between two hosts without materialising the router path."""
        if a == b:
            return 0.0
        position_b = self._upward_pos[b]
        for router, cum_a in self._upward[a]:
            hit = position_b.get(router)
            if hit is not None:
                return cum_a + hit[1]
        self._ensure_core_paths()
        assert self._core_dist is not None and self._host_core_index is not None
        ia = self._host_core_index[a]
        ib = self._host_core_index[b]
        if ia < 0 or ib < 0:
            missing = self._host_pop_router[a if ia < 0 else b]
            raise SimulationError(f"router {missing} is not in the core graph")
        distance = self._core_dist[ia, ib]
        if np.isinf(distance):
            raise SimulationError(
                f"core graph is disconnected: "
                f"{self._host_pop_router[a]} .. {self._host_pop_router[b]}"
            )
        return float(
            self._host_hub_ms[a] + distance + self._host_hub_ms[b]
        )

    def _lca_pair_latencies(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised RTTs for host pairs that share an attachment router.

        The grouped-array form of the scalar lowest-common-router scan in
        :meth:`_pair_latency_ms`: compare the two padded chain arrays as a
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
        """RTT between two hosts (oracle interface)."""
        return self._pair_latency_ms(a, b)

    @property
    def n_nodes(self) -> int:
        """Oracle interface: hosts are the nodes."""
        return self.n_hosts

    # -- bulk latency (batch oracle interface) ----------------------------------

    def latency_matrix(
        self,
        host_ids: np.ndarray | list[int],
        col_host_ids: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """RTT block between host id arrays, assembled without per-pair routing.

        For the (overwhelmingly common) cross-PoP pairs the RTT is
        ``hub(a) + core_distance(pop(a), pop(b)) + hub(b)``, filled in one
        vectorised expression from the all-pairs core matrix.  Pairs whose
        attachment chains terminate at the same PoP router may share a
        router below the PoP, so those entries are corrected with the
        grouped-array lowest-common-router scan
        (:meth:`_lca_pair_latencies` — bit-identical to the scalar scan).
        Equal ids yield 0.
        """
        rows = np.asarray(host_ids, dtype=int)
        cols = rows if col_host_ids is None else np.asarray(col_host_ids, dtype=int)
        self._ensure_core_paths()
        assert self._core_dist is not None and self._host_core_index is not None
        core_rows = self._host_core_index[rows]
        core_cols = self._host_core_index[cols]
        # Same attachment PoP router: the chains may share a lower router.
        same_top = (
            self._host_pop_router[rows][:, None]
            == self._host_pop_router[cols][None, :]
        )
        # Hosts anchored outside the core graph are an error only for the
        # cross-PoP cells that actually need a core distance.
        needs_core = ~same_top
        missing = (core_rows < 0)[:, None] | (core_cols < 0)[None, :]
        if np.any(missing & needs_core):
            i, j = np.argwhere(missing & needs_core)[0]
            bad_host = rows[i] if core_rows[i] < 0 else cols[j]
            raise SimulationError(
                f"router {self._host_pop_router[bad_host]} is not in the core graph"
            )
        # Association order matches the scalar path ((hub_a + core) + hub_b)
        # so batch and per-pair results are bit-identical.  (-1 indices only
        # occur in same-top cells, which are overwritten below.)
        block = (
            self._host_hub_ms[rows][:, None]
            + self._core_dist[np.ix_(core_rows, core_cols)]
        ) + self._host_hub_ms[cols][None, :]
        if np.any(np.isinf(block[needs_core])):
            raise SimulationError("core graph is disconnected")
        if np.any(same_top):
            i, j = np.nonzero(same_top)
            block[i, j] = self._lca_pair_latencies(rows[i], cols[j])
        return block

    def pair_latencies(
        self, pairs: "list[tuple[int, int]] | np.ndarray"
    ) -> np.ndarray:
        """Element-wise RTTs for an explicit host-pair list.

        The sparse counterpart of :meth:`latency_matrix`: when a pipeline
        needs specific pairs (the DNS study's sampled cluster pairs, say)
        rather than a dense block, this avoids materialising the full
        cross product.  Cross-PoP pairs are vectorised; pairs sharing an
        attachment PoP router fall back to the exact per-pair scan.
        """
        pairs_arr = np.asarray(pairs, dtype=int)
        if pairs_arr.size == 0:
            return np.empty(0, dtype=float)
        a = pairs_arr[:, 0]
        b = pairs_arr[:, 1]
        self._ensure_core_paths()
        assert self._core_dist is not None and self._host_core_index is not None
        ia = self._host_core_index[a]
        ib = self._host_core_index[b]
        same_top = self._host_pop_router[a] == self._host_pop_router[b]
        missing = ((ia < 0) | (ib < 0)) & ~same_top
        if np.any(missing):
            k = int(np.flatnonzero(missing)[0])
            bad_host = a[k] if ia[k] < 0 else b[k]
            raise SimulationError(
                f"router {self._host_pop_router[bad_host]} is not in the core graph"
            )
        out = (
            self._host_hub_ms[a] + self._core_dist[ia, ib]
        ) + self._host_hub_ms[b]
        idx = np.flatnonzero(same_top)
        if idx.size:
            out[idx] = self._lca_pair_latencies(a[idx], b[idx])
        if np.any(np.isinf(out[~same_top])):
            raise SimulationError("core graph is disconnected")
        return out

    def latencies_from(
        self, a: int, members: np.ndarray | None = None
    ) -> np.ndarray:
        """Batch oracle interface: RTTs from host ``a`` to ``members``."""
        if members is None:
            members = np.arange(self.n_hosts)
        return self.latency_matrix([a], members)[0]

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Batch oracle interface: the ``rows × cols`` RTT block."""
        return self.latency_matrix(rows, cols)

    # -- ground truth helpers ---------------------------------------------------

    def same_end_network(self, a: int, b: int) -> bool:
        return self.hosts[a].en_id == self.hosts[b].en_id

    def same_pop(self, a: int, b: int) -> bool:
        return self.hosts[a].pop_id == self.hosts[b].pop_id
