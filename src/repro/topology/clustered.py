"""The paper's Section 4 clustered latency model.

"To simulate the clustering condition in the inter-peer latency matrix, we
create clusters of end-networks that in turn contain peers" — this module is
that construction, verbatim:

* each cluster's mean hub latency is uniform in [4, 6] ms;
* each end-network's hub latency is uniform in ``(1 - delta) .. (1 + delta)``
  times its cluster's mean;
* every end-network holds ``peers_per_end_network`` peers (paper: 2);
* intra-end-network latency is 100 µs;
* two peers in different end-networks are separated by
  ``hub(a) + core(cluster_a, cluster_b) + hub(b)`` where ``core`` comes from
  a Meridian-dataset-like inter-hub matrix (median ≈ 65 ms) and is zero
  within a cluster.

The resulting latency assignment "satisfies the expected gradation":
intra-EN ≪ intra-cluster < inter-cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError, DataError
from repro.util.rng import make_rng
from repro.util.units import INTRA_EN_LATENCY_MS
from repro.util.validate import require_in_range, require_positive


@dataclass(frozen=True)
class ClusteredConfig:
    """Parameters of the Section 4 construction (paper defaults)."""

    n_clusters: int
    end_networks_per_cluster: int
    peers_per_end_network: int = 2
    delta: float = 0.2
    mean_hub_latency_low_ms: float = 4.0
    mean_hub_latency_high_ms: float = 6.0
    intra_en_latency_ms: float = INTRA_EN_LATENCY_MS

    def __post_init__(self) -> None:
        require_positive(self.n_clusters, "n_clusters")
        require_positive(self.end_networks_per_cluster, "end_networks_per_cluster")
        require_positive(self.peers_per_end_network, "peers_per_end_network")
        require_in_range(self.delta, "delta", 0.0, 1.0)
        require_positive(self.mean_hub_latency_low_ms, "mean_hub_latency_low_ms")
        if self.mean_hub_latency_high_ms < self.mean_hub_latency_low_ms:
            raise ConfigurationError(
                "mean_hub_latency_high_ms must be >= mean_hub_latency_low_ms"
            )
        require_positive(self.intra_en_latency_ms, "intra_en_latency_ms")

    @property
    def n_end_networks(self) -> int:
        """Total end-networks across all clusters."""
        return self.n_clusters * self.end_networks_per_cluster

    @property
    def n_peers(self) -> int:
        """Total peers across all clusters."""
        return self.n_end_networks * self.peers_per_end_network


class ClusteredTopology:
    """A concrete sample of the Section 4 model.

    Hosts are integer ids ``0 .. n_peers-1``; parallel arrays map each host
    to its end-network and cluster, and each end-network to its hub latency.
    The class is a :class:`~repro.topology.oracle.LatencyOracle`.
    """

    def __init__(
        self,
        config: ClusteredConfig,
        en_cluster: np.ndarray,
        en_hub_latency_ms: np.ndarray,
        host_en: np.ndarray,
        core_ms: np.ndarray,
    ) -> None:
        if en_cluster.shape != en_hub_latency_ms.shape:
            raise DataError("en_cluster and en_hub_latency_ms must be parallel")
        if core_ms.shape != (config.n_clusters, config.n_clusters):
            raise DataError(
                f"core matrix shape {core_ms.shape} does not match "
                f"{config.n_clusters} clusters"
            )
        if not np.allclose(np.diag(core_ms), 0.0):
            raise DataError("core matrix must have a zero diagonal")
        if (core_ms < 0.0).any() or (en_hub_latency_ms < 0.0).any():
            raise DataError("core and hub latencies must be non-negative")
        self.config = config
        self.en_cluster = en_cluster
        self.en_hub_latency_ms = en_hub_latency_ms
        self.host_en = host_en
        self.host_cluster = en_cluster[host_en]
        self.host_hub_latency_ms = en_hub_latency_ms[host_en]
        self.core_ms = core_ms

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        config: ClusteredConfig,
        core_ms: np.ndarray,
        seed: int | np.random.Generator | None = None,
    ) -> "ClusteredTopology":
        """Sample a topology per the Section 4 recipe.

        ``core_ms`` supplies inter-cluster-hub latencies (use
        :func:`repro.latency.synthetic.synthetic_core_matrix` for a
        Meridian-dataset-like one).
        """
        rng = make_rng(seed)
        n_en = config.n_end_networks
        en_cluster = np.repeat(
            np.arange(config.n_clusters), config.end_networks_per_cluster
        )
        cluster_mean = rng.uniform(
            config.mean_hub_latency_low_ms,
            config.mean_hub_latency_high_ms,
            size=config.n_clusters,
        )
        factor = rng.uniform(1.0 - config.delta, 1.0 + config.delta, size=n_en)
        en_hub_latency = cluster_mean[en_cluster] * factor
        host_en = np.repeat(np.arange(n_en), config.peers_per_end_network)
        return cls(
            config=config,
            en_cluster=en_cluster,
            en_hub_latency_ms=en_hub_latency,
            host_en=host_en,
            core_ms=np.asarray(core_ms, dtype=float),
        )

    # -- oracle interface --------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.host_en.size)

    def latency_ms(self, a: int, b: int) -> float:
        """RTT between hosts ``a`` and ``b`` per the Section 4 path model."""
        if a == b:
            return 0.0
        if self.host_en[a] == self.host_en[b]:
            return self.config.intra_en_latency_ms
        hub = self.host_hub_latency_ms[a] + self.host_hub_latency_ms[b]
        ca, cb = self.host_cluster[a], self.host_cluster[b]
        return float(hub + self.core_ms[ca, cb])

    def latencies_from(self, a: int, members: np.ndarray | None = None) -> np.ndarray:
        """RTTs from host ``a`` to ``members`` without a dense matrix.

        The row member of the :class:`~repro.topology.oracle.LatencyOracle`
        contract, computed from the path model directly — the float
        operation order matches :meth:`latency_ms` and :meth:`full_matrix`
        term for term, so the values are bit-identical to a dense row
        slice.  O(len(members)) time and memory: what lets the simulator
        hold a million-peer world where the full matrix would be 8 TB.
        """
        if members is None:
            members = np.arange(self.n_nodes)
        else:
            members = np.asarray(members, dtype=int)
        row = self.host_hub_latency_ms[a] + self.host_hub_latency_ms[members]
        row += self.core_ms[self.host_cluster[a], self.host_cluster[members]]
        row[self.host_en[members] == self.host_en[a]] = self.config.intra_en_latency_ms
        row[members == a] = 0.0
        return row

    def latency_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise RTTs ``latency_ms(a[i], b[i])``, vectorised."""
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        vals = self.host_hub_latency_ms[a] + self.host_hub_latency_ms[b]
        vals += self.core_ms[self.host_cluster[a], self.host_cluster[b]]
        vals[self.host_en[a] == self.host_en[b]] = self.config.intra_en_latency_ms
        vals[a == b] = 0.0
        return vals

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """RTT block between two host-id sets (matrix-free fancy slice)."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        hub = self.host_hub_latency_ms
        block = hub[rows][:, None] + hub[cols][None, :]
        block += self.core_ms[np.ix_(self.host_cluster[rows], self.host_cluster[cols])]
        same_en = self.host_en[rows][:, None] == self.host_en[cols][None, :]
        block[same_en] = self.config.intra_en_latency_ms
        block[rows[:, None] == cols[None, :]] = 0.0
        return block

    def full_matrix(self) -> np.ndarray:
        """Dense symmetric latency matrix over all hosts (vectorised)."""
        hub = self.host_hub_latency_ms
        matrix = hub[:, None] + hub[None, :]
        matrix += self.core_ms[np.ix_(self.host_cluster, self.host_cluster)]
        same_en = self.host_en[:, None] == self.host_en[None, :]
        matrix[same_en] = self.config.intra_en_latency_ms
        np.fill_diagonal(matrix, 0.0)
        return matrix

    # -- ground-truth helpers ----------------------------------------------

    def same_end_network(self, a: int, b: int) -> bool:
        """True if two hosts share an end-network (the 'exact-closest' case)."""
        return bool(self.host_en[a] == self.host_en[b])

    def same_cluster(self, a: int, b: int) -> bool:
        """True if two hosts hang off the same cluster-hub."""
        return bool(self.host_cluster[a] == self.host_cluster[b])

    def hosts_in_end_network(self, en_id: int) -> np.ndarray:
        """All host ids inside end-network ``en_id``."""
        return np.flatnonzero(self.host_en == en_id)

    def hosts_in_cluster(self, cluster_id: int) -> np.ndarray:
        """All host ids inside cluster ``cluster_id``."""
        return np.flatnonzero(self.host_cluster == cluster_id)

    def end_network_mates(self, host: int) -> np.ndarray:
        """Hosts sharing ``host``'s end-network, excluding ``host`` itself."""
        mates = self.hosts_in_end_network(int(self.host_en[host]))
        return mates[mates != host]

    def describe(self) -> str:
        """One-line summary used in experiment logs."""
        c = self.config
        return (
            f"ClusteredTopology(clusters={c.n_clusters}, "
            f"en/cluster={c.end_networks_per_cluster}, "
            f"peers/en={c.peers_per_end_network}, delta={c.delta}, "
            f"hosts={self.n_nodes})"
        )


class GroundTruthIndex:
    """Incremental nearest-live-member ground truth for a clustered world.

    Under the Section 4 path model a target's nearest live member is the
    target itself (RTT 0) when it is live; otherwise the RTT is the smaller
    of ``intra_en_latency_ms``, when a live end-network mate exists, and
    the hub path ``min_c (hub(t) + h_c) + core[c_t, c]``.  ``h_c`` is the
    smallest hub latency among cluster ``c``'s live end-networks other than
    the target's own: each cluster's smallest live hub latency, or for the
    target's own cluster the second-smallest when the smallest sits in the
    target's end-network.  Float ``+`` is monotone and the operands are
    added in :meth:`ClusteredTopology.latency_block`'s order, so each term
    is the very float a full row scan would see: the index is bit-identical
    to ``latency_block(targets, members).min(axis=1)`` on every world, in
    O(clusters) per target instead of O(members).

    The index holds a live mask over hosts, per-end-network live counts
    and, per cluster, the smallest and second-smallest live end-network hub
    latency and which end-network holds the smallest; :meth:`apply`
    advances it by one membership diff and rescans only the end-networks
    of the clusters the diff touches.
    """

    def __init__(self, topology: ClusteredTopology, members: np.ndarray) -> None:
        self.topology = topology
        self.live = np.zeros(topology.n_nodes, dtype=bool)
        self.live[np.asarray(members, dtype=int)] = True
        n_en = topology.en_cluster.size
        self._en_live = np.bincount(topology.host_en[self.live], minlength=n_en)
        self._hub_live = np.where(
            self._en_live > 0, topology.en_hub_latency_ms, np.inf
        )
        # End-networks grouped by cluster: cluster c's are
        # _cluster_ens[_bounds[c]:_bounds[c + 1]].
        self._cluster_ens = np.argsort(topology.en_cluster, kind="stable")
        n_clusters = topology.config.n_clusters
        self._bounds = np.searchsorted(
            topology.en_cluster[self._cluster_ens], np.arange(n_clusters + 1)
        )
        self.min_hub = np.full(n_clusters, np.inf)
        self._second_hub = np.full(n_clusters, np.inf)
        self._min_en = np.full(n_clusters, -1)
        for c in range(n_clusters):
            self._rescan(c)

    def _rescan(self, c: int) -> None:
        """Recompute cluster ``c``'s smallest and second-smallest live hub."""
        ens = self._cluster_ens[self._bounds[c] : self._bounds[c + 1]]
        if ens.size == 0:
            return
        hubs = self._hub_live[ens]
        k = int(hubs.argmin())
        self._min_en[c] = ens[k]
        self.min_hub[c] = hubs[k]
        hubs[k] = np.inf
        self._second_hub[c] = hubs.min()

    def apply(self, joined: np.ndarray, left: np.ndarray) -> None:
        """Advance by one membership diff: ``left`` leave, then ``joined`` join."""
        host_en = self.topology.host_en
        left = np.unique(np.asarray(left, dtype=int))
        left = left[self.live[left]]
        self.live[left] = False
        joined = np.unique(np.asarray(joined, dtype=int))
        joined = joined[~self.live[joined]]
        self.live[joined] = True
        np.subtract.at(self._en_live, host_en[left], 1)
        np.add.at(self._en_live, host_en[joined], 1)
        ens = np.unique(host_en[np.concatenate([left, joined])])
        self._hub_live[ens] = np.where(
            self._en_live[ens] > 0, self.topology.en_hub_latency_ms[ens], np.inf
        )
        for c in np.unique(self.topology.en_cluster[ens]):
            self._rescan(c)

    def nearest_rtt(self, targets: np.ndarray) -> np.ndarray:
        """True RTT from each target to its nearest live member (inf if none)."""
        topo = self.topology
        targets = np.asarray(targets, dtype=int)
        own_cluster = topo.host_cluster[targets]
        own_en = topo.host_en[targets]
        hub = topo.host_hub_latency_ms[targets]
        best = hub[:, None] + self.min_hub[None, :]
        best += topo.core_ms[own_cluster]
        # The target's own end-network is reached without its hub: where it
        # holds its cluster's smallest live hub, the hub path into that
        # cluster runs through the second-smallest instead.
        rows = np.flatnonzero(self._min_en[own_cluster] == own_en)
        cols = own_cluster[rows]
        best[rows, cols] = hub[rows] + self._second_hub[cols]
        best[rows, cols] += topo.core_ms[cols, cols]
        best = best.min(axis=1)
        mate = self._en_live[own_en] > 0
        best[mate] = np.minimum(best[mate], topo.config.intra_en_latency_ms)
        best[self.live[targets]] = 0.0
        return best

    def is_live(self, hosts: np.ndarray) -> np.ndarray:
        """Membership of each host id; the no-answer sentinel -1 is never live."""
        hosts = np.asarray(hosts, dtype=int)
        return (hosts >= 0) & self.live[hosts]
