"""Per-end-network membership registries.

The paper's second mechanism: "a central server inside each end-network
that tracks all peers inside the end-network that are currently in the P2P
system ... it needs a sufficiently large number of peers within each
end-network to justify the setup of the membership tracking server."

The simulation deploys registries only in end-networks whose peer
population meets a deployment threshold, so evaluations expose exactly that
coverage limitation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.internet import SyntheticInternet
from repro.util.errors import DataError
from repro.util.validate import require_positive


@dataclass(frozen=True)
class RegistryStats:
    """Deployment coverage summary."""

    end_networks_total: int
    end_networks_with_registry: int
    peers_covered: int
    peers_total: int

    @property
    def peer_coverage(self) -> float:
        return self.peers_covered / self.peers_total if self.peers_total else 0.0


class EndNetworkRegistry:
    """Membership tracking servers, one per (large enough) end-network."""

    def __init__(
        self,
        internet: SyntheticInternet,
        deployment_threshold: int = 2,
    ) -> None:
        require_positive(deployment_threshold, "deployment_threshold")
        self._internet = internet
        self._threshold = deployment_threshold
        self._members: dict[int, set[int]] = {}  # en_id -> joined peers
        self._deployed: set[int] = set()
        # Deployment decision happens against the *potential* population.
        peers_by_en: dict[int, int] = {}
        for host in internet.hosts:
            if host.kind.value == "peer":
                peers_by_en[host.en_id] = peers_by_en.get(host.en_id, 0) + 1
        for en_id, count in peers_by_en.items():
            if count >= deployment_threshold:
                self._deployed.add(en_id)
                self._members[en_id] = set()

    def join(self, peer_id: int) -> bool:
        """Register a peer; returns False when its network has no registry."""
        en_id = self._internet.host(peer_id).en_id
        if en_id not in self._deployed:
            return False
        self._members[en_id].add(peer_id)
        return True

    def leave(self, peer_id: int) -> None:
        en_id = self._internet.host(peer_id).en_id
        members = self._members.get(en_id)
        if members is None or peer_id not in members:
            raise DataError(f"peer {peer_id} was not registered")
        members.discard(peer_id)

    def lookup(self, peer_id: int) -> list[int]:
        """Current co-located members (excluding the asker)."""
        en_id = self._internet.host(peer_id).en_id
        members = self._members.get(en_id, set())
        return [m for m in members if m != peer_id]

    def find_nearest(self, peer_id: int) -> tuple[int | None, float | None]:
        """Closest registered same-network peer."""
        members = self.lookup(peer_id)
        if not members:
            return None, None
        latencies = self._internet.latencies_from(peer_id, members)
        best = int(np.argmin(latencies))
        return members[best], float(latencies[best])

    def stats(self) -> RegistryStats:
        """Coverage of the deployment policy."""
        peers = [h for h in self._internet.hosts if h.kind.value == "peer"]
        covered = sum(1 for p in peers if p.en_id in self._deployed)
        return RegistryStats(
            end_networks_total=len(self._internet.end_networks),
            end_networks_with_registry=len(self._deployed),
            peers_covered=covered,
            peers_total=len(peers),
        )
