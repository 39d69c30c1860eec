"""Section 3.2: clustering measurement over Azureus peers (Figures 6, 7).

Pipeline, as in the paper:

1. traceroute to every peer from all vantage points (Table 1); a peer's
   closest upstream router is the last valid router on the trace;
2. retain peers that answered a TCP ping (port 6881 'connect' timing) or a
   traceroute AND whose upstream router agrees across all vantage points;
3. group the survivors into clusters by upstream router (the cluster-hub);
4. hub→peer latency = TCP-ping latency minus the hub's traceroute entry,
   medianed over vantage points, negatives discarded;
5. prune each cluster to the largest subset whose hub latencies are within
   a factor of 1.5 of one another.

Figure 6 is the cumulative count of peers by (un)pruned cluster size;
Figure 7 the hub-latency distributions of the five largest pruned clusters.
The headline statistic: "about 16 % of the peers are in (pruned) clusters
of size 25 or larger".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.measurement.pipeline_types import ClusterOfPeers
from repro.measurement.tcpping import TcpPinger
from repro.measurement.traceroute import Rockettrace
from repro.topology.internet import SyntheticInternet
from repro.util.errors import DataError
from repro.util.rng import make_rng
from repro.util.validate import require_positive


@dataclass(frozen=True)
class AzureusStudyConfig:
    """Knobs of the Section 3.2 pipeline."""

    prune_factor: float = 1.5
    min_cluster_size: int = 2
    large_cluster_threshold: int = 25  # the paper's "size 25 or larger"
    # The study retries silent hops ("if none of the entries in the
    # penultimate hop are valid, we go up"), so its effective per-router
    # response rate beats a single traceroute's.
    router_response_rate: float = 0.96

    def __post_init__(self) -> None:
        require_positive(self.prune_factor - 1.0, "prune_factor - 1")


@dataclass
class AzureusStudyResult:
    """Everything Figures 6-7 need."""

    peers_total: int = 0
    peers_responsive: int = 0
    peers_retained: int = 0  # responsive AND consistent upstream router
    unpruned_clusters: list[ClusterOfPeers] = field(default_factory=list)
    pruned_clusters: list[ClusterOfPeers] = field(default_factory=list)

    def cluster_sizes(self, pruned: bool) -> list[int]:
        clusters = self.pruned_clusters if pruned else self.unpruned_clusters
        return sorted((c.size for c in clusters), reverse=True)

    def cumulative_peer_count_by_size(self, pruned: bool) -> list[tuple[int, int]]:
        """Fig 6: (cluster size, cumulative peers in clusters <= size)."""
        sizes = sorted(self.cluster_sizes(pruned))
        points: list[tuple[int, int]] = []
        running = 0
        for size in sizes:
            running += size
            points.append((size, running))
        return points

    def fraction_in_large_clusters(self, threshold: int = 25) -> float:
        """The paper's 16 %: peers in pruned clusters >= ``threshold``."""
        total = sum(c.size for c in self.pruned_clusters)
        if total == 0:
            raise DataError("no pruned clusters")
        large = sum(c.size for c in self.pruned_clusters if c.size >= threshold)
        return large / total

    def top_clusters(self, count: int = 5) -> list[ClusterOfPeers]:
        """Fig 7's subjects: the largest pruned clusters."""
        return sorted(self.pruned_clusters, key=lambda c: c.size, reverse=True)[
            :count
        ]


def _largest_within_factor(latencies: np.ndarray, factor: float) -> np.ndarray:
    """Indices of the largest subset with max/min <= factor (sliding window)."""
    order = np.argsort(latencies)
    sorted_lat = latencies[order]
    best_lo, best_hi = 0, 1
    lo = 0
    for hi in range(1, latencies.size + 1):
        while sorted_lat[hi - 1] > factor * sorted_lat[lo]:
            lo += 1
        if hi - lo > best_hi - best_lo:
            best_lo, best_hi = lo, hi
    return order[best_lo:best_hi]


class AzureusStudy:
    """Runs the Section 3.2 pipeline against a synthetic Internet."""

    def __init__(
        self,
        internet: SyntheticInternet,
        config: AzureusStudyConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not internet.vantage_ids:
            raise DataError("the internet has no vantage points")
        self._internet = internet
        self._config = config or AzureusStudyConfig()
        self._rng = make_rng(seed)
        from repro.measurement.traceroute import TracerouteConfig

        self._tracer = Rockettrace(
            internet,
            config=TracerouteConfig(
                router_response_rate=self._config.router_response_rate
            ),
            seed=self._rng,
        )
        self._tcp = TcpPinger(internet, seed=self._rng)

    def run(self) -> AzureusStudyResult:
        internet = self._internet
        cfg = self._config
        result = AzureusStudyResult(peers_total=len(internet.peer_ids))

        # Stage 1+2: responsiveness and upstream-router consistency.
        responsive_peers = internet.responsive_peer_ids()
        result.peers_responsive = len(responsive_peers)
        # Bulk true RTTs for the vantage->peer TCP pings (one block instead
        # of one route() per ping; no RNG consumed, results identical).
        true_block = internet.latency_matrix(internet.vantage_ids, responsive_peers)
        vantage_row = {v: i for i, v in enumerate(internet.vantage_ids)}
        peer_column = {p: j for j, p in enumerate(responsive_peers)}
        # Batched route construction: one routes_from sweep per vantage
        # replaces a route() per (vantage, peer) trace — the pipeline's
        # dominant cost.  The traces' noise draws are untouched.
        route_to_peer = {
            vantage: dict(
                zip(responsive_peers, internet.routes_from(vantage, responsive_peers))
            )
            for vantage in internet.vantage_ids
        }
        hub_of_peer: dict[int, int] = {}
        hub_latency: dict[int, float] = {}
        for peer in responsive_peers:
            upstream_seen: set[int] = set()
            estimates: list[float] = []
            usable = True
            for vantage in internet.vantage_ids:
                trace = self._tracer.trace(
                    vantage, peer, route=route_to_peer[vantage][peer]
                )
                last = trace.last_valid_router()
                if last is None:
                    usable = False
                    break
                upstream_seen.add(last)
                if len(upstream_seen) > 1:
                    usable = False
                    break
                # Hub->peer latency: TCP ping minus the hub's trace entry.
                tcp = self._tcp.measure(
                    vantage,
                    peer,
                    true_ms=float(true_block[vantage_row[vantage], peer_column[peer]]),
                )
                hub_hop = next(
                    (h for h in reversed(trace.hops) if h.router_id == last), None
                )
                if tcp is not None and hub_hop is not None and hub_hop.rtt_ms is not None:
                    estimate = tcp - hub_hop.rtt_ms
                    if estimate > 0:
                        estimates.append(estimate)
            if not usable or not upstream_seen or not estimates:
                continue
            hub_of_peer[peer] = next(iter(upstream_seen))
            hub_latency[peer] = float(np.median(estimates))
        result.peers_retained = len(hub_of_peer)

        # Stage 3: clusters by shared upstream router.
        by_hub: dict[int, list[int]] = {}
        for peer, hub in hub_of_peer.items():
            by_hub.setdefault(hub, []).append(peer)
        for hub, peers in by_hub.items():
            if len(peers) < cfg.min_cluster_size:
                continue
            cluster = ClusterOfPeers(
                hub_router_id=hub,
                peer_ids=list(peers),
                hub_latency_ms={p: hub_latency[p] for p in peers},
            )
            result.unpruned_clusters.append(cluster)

            # Stage 5: prune to hub latencies within the 1.5x factor.
            latencies = np.array([hub_latency[p] for p in peers])
            keep = _largest_within_factor(latencies, cfg.prune_factor)
            if keep.size >= cfg.min_cluster_size:
                kept_peers = [peers[int(i)] for i in keep]
                result.pruned_clusters.append(
                    ClusterOfPeers(
                        hub_router_id=hub,
                        peer_ids=kept_peers,
                        hub_latency_ms={p: hub_latency[p] for p in kept_peers},
                    )
                )
        return result
