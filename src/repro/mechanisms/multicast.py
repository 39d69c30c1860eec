"""Expanding IP-multicast search inside the end-network.

The paper's first mechanism: "a simple expanding search within each
end-network using IP multicast ... assumes that IP multicast is enabled
within each end-network and that messages multicast from one host ... are
capable of reaching any other host in the end-network; the latter
assumption may often be invalid in large end-networks that are themselves
composed of multiple LANs or VLANs".

The simulation models both failure modes: per-end-network multicast
availability, and VLAN fragmentation that partitions large end-networks
into scopes a multicast cannot cross.
"""

from __future__ import annotations

import numpy as np

from repro.topology.internet import SyntheticInternet
from repro.util.rng import make_rng
from repro.util.validate import require_in_range


class MulticastSearch:
    """End-network-scoped peer discovery via simulated multicast."""

    def __init__(
        self,
        internet: SyntheticInternet,
        multicast_enabled_fraction: float = 0.7,
        vlan_fragmentation_threshold: int = 6,
        vlans_in_large_en: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        require_in_range(
            multicast_enabled_fraction, "multicast_enabled_fraction", 0.0, 1.0
        )
        self._internet = internet
        rng = make_rng(seed)
        # Decide per end-network: multicast availability and VLAN scopes.
        self._en_enabled: dict[int, bool] = {}
        self._host_scope: dict[int, tuple[int, int]] = {}
        hosts_by_en: dict[int, list[int]] = {}
        for host in internet.hosts:
            hosts_by_en.setdefault(host.en_id, []).append(host.host_id)
        for en in internet.end_networks:
            self._en_enabled[en.en_id] = bool(
                rng.random() < multicast_enabled_fraction
            )
            members = hosts_by_en.get(en.en_id, [])
            if len(members) >= vlan_fragmentation_threshold:
                scopes = rng.integers(0, vlans_in_large_en, size=len(members))
            else:
                scopes = np.zeros(len(members), dtype=int)
            for host_id, scope in zip(members, scopes):
                self._host_scope[host_id] = (en.en_id, int(scope))

    def reachable_peers(self, host_id: int, peer_ids: set[int]) -> list[int]:
        """Peers an expanding multicast from ``host_id`` would discover."""
        en_id, scope = self._host_scope[host_id]
        if not self._en_enabled[en_id]:
            return []
        return [
            p
            for p, s in self._host_scope.items()
            if p != host_id and s == (en_id, scope) and p in peer_ids
        ]

    def find_nearest(
        self, host_id: int, peer_ids: set[int]
    ) -> tuple[int | None, float | None]:
        """The closest multicast-reachable peer (intra-EN, so all are near)."""
        reachable = self.reachable_peers(host_id, peer_ids)
        if not reachable:
            return None, None
        latencies = self._internet.latencies_from(host_id, reachable)
        best = int(np.argmin(latencies))
        return reachable[best], float(latencies[best])
