"""`NearestPeerFinder` — the batteries-included public API.

What a downstream application (game lobby, swarm tracker) actually wants:
peers join, peers ask "who is my nearest peer?", and the library runs the
full Section 5 recipe under the hood — multicast scoped to the end-network,
the per-network registry, the UCL key-value map, the IP-prefix map, and a
latency-only fallback (Meridian by default) for peers the mechanisms cannot
place.

Example::

    internet = SyntheticInternet.generate(seed=7)
    finder = NearestPeerFinder(internet, seed=7)
    for peer in internet.peer_ids[:200]:
        finder.join(peer)
    result = finder.find(internet.peer_ids[200])
    print(result.stage, result.found, result.latency_ms)
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.algorithms.meridian_search import MeridianSearch
from repro.mechanisms.composite import CompositeFinder, CompositeResult
from repro.mechanisms.ipprefix import PrefixMap
from repro.mechanisms.multicast import MulticastSearch
from repro.mechanisms.registry import EndNetworkRegistry
from repro.mechanisms.ucl import UclMap
from repro.topology.internet import SyntheticInternet
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng

#: All mechanism names, in cascade order.
ALL_MECHANISMS = ("multicast", "registry", "ucl", "prefix")


class NearestPeerFinder:
    """High-level nearest-peer service over a synthetic Internet."""

    def __init__(
        self,
        internet: SyntheticInternet,
        mechanisms: Iterable[str] = ALL_MECHANISMS,
        fallback: NearestPeerAlgorithm | None = None,
        prefix_length: int = 24,
        ucl_max_estimate_ms: float = 10.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._internet = internet
        self._rng = make_rng(seed)
        chosen = tuple(mechanisms)
        unknown = set(chosen) - set(ALL_MECHANISMS)
        if unknown:
            raise ConfigurationError(f"unknown mechanisms: {sorted(unknown)}")
        self._fallback = fallback if fallback is not None else MeridianSearch()
        self._composite = CompositeFinder(
            internet,
            multicast=(
                MulticastSearch(internet, seed=self._rng)
                if "multicast" in chosen
                else None
            ),
            registry=(
                EndNetworkRegistry(internet) if "registry" in chosen else None
            ),
            ucl_map=UclMap(internet) if "ucl" in chosen else None,
            prefix_map=(
                PrefixMap(internet, prefix_length=prefix_length)
                if "prefix" in chosen
                else None
            ),
            fallback=self._fallback,
            ucl_max_estimate_ms=ucl_max_estimate_ms,
            seed=self._rng,
        )
        self._members: list[int] = []
        self._fallback_stale = True

    # -- membership ------------------------------------------------------------

    @property
    def members(self) -> list[int]:
        """Peers currently joined."""
        return list(self._members)

    def join(self, peer_id: int) -> None:
        """A peer joins: publish it through every configured mechanism."""
        if peer_id in self._members:
            raise ConfigurationError(f"peer {peer_id} already joined")
        self._composite.register_peer(peer_id)
        self._members.append(peer_id)
        self._fallback_stale = True

    def join_all(self, peer_ids: Iterable[int]) -> None:
        """Bulk join."""
        for peer_id in peer_ids:
            self.join(peer_id)

    # -- queries -----------------------------------------------------------------

    def _refresh_fallback(self) -> None:
        if self._fallback_stale and len(self._members) >= 2:
            self._fallback.build(
                self._internet, np.asarray(self._members), seed=self._rng
            )
            self._fallback_stale = False

    def find(self, target: int) -> CompositeResult:
        """Nearest joined peer to ``target`` (which need not have joined)."""
        if len(self._members) < 1:
            raise ConfigurationError("no peers have joined yet")
        self._refresh_fallback()
        return self._composite.find_nearest(target)

    def true_nearest(self, target: int) -> tuple[int, float]:
        """Ground truth (for evaluation): the actual nearest joined peer."""
        members = [m for m in self._members if m != target]
        if not members:
            raise ConfigurationError("no other members to compare against")
        latencies = self._internet.latencies_from(target, members)
        best = int(np.argmin(latencies))
        return members[best], float(latencies[best])
