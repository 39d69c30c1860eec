"""Upstream Connectivity Lists (UCLs) — the paper's most promising mechanism.

A peer's UCL is "the list of routers that are at a fixed number of hops
(say 5) or closer from the peer, where peers would determine their UCLs by
running traceroutes to a few different locations in the Internet".  The
key-value mapping stores, per upstream router, the peers that list it —
annotated with the peer→router latency so that "two peers that share
upstream routers can form a rough estimate of their latency to each other
as the sum of their latencies to the closest common router" and discard
far candidates without probing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.measurement.ping import Pinger
from repro.measurement.traceroute import Rockettrace
from repro.topology.internet import SyntheticInternet
from repro.util.errors import DataError
from repro.util.rng import make_rng
from repro.util.validate import require_positive


def probe_nearest(
    internet: SyntheticInternet,
    peer: int,
    candidates: list[int],
    rng: np.random.Generator,
) -> tuple[int | None, float | None]:
    """Probe each candidate in order; the one measured closest and its RTT.

    Unlike ICMP ping (which NATed peers drop), peers inside the P2P system
    measure each other over the overlay protocol itself, so every probe
    completes; it carries small multiplicative noise.  ``(None, None)``
    when there is no candidate.
    """
    best_peer, best_latency = None, None
    true = internet.latencies_from(peer, candidates).tolist()
    for candidate, true_ms in zip(candidates, true):
        measured = true_ms * float(np.exp(rng.normal(0.0, 0.02))) + float(
            rng.exponential(0.05)
        )
        if best_latency is None or measured < best_latency:
            best_peer, best_latency = candidate, measured
    return best_peer, best_latency


@dataclass(frozen=True)
class UclEntry:
    """One UCL element: an upstream router and the latency to reach it."""

    router_id: int
    latency_ms: float


def compute_ucl(
    internet: SyntheticInternet,
    host_id: int,
    max_routers: int = 5,
    n_traceroute_targets: int = 3,
    tracer: Rockettrace | None = None,
    pinger: Pinger | None = None,
    seed: int | np.random.Generator | None = None,
) -> list[UclEntry]:
    """Determine a host's UCL by tracerouting to a few random destinations.

    Only routers that actually responded on some trace enter the UCL (a
    silent router is invisible to the mechanism — the realistic
    false-negative source the paper acknowledges).  Latencies to the
    routers come from ping.
    """
    require_positive(max_routers, "max_routers")
    rng = make_rng(seed)
    tracer = tracer or Rockettrace(internet, seed=rng)
    pinger = pinger or Pinger(internet, seed=rng)

    seen: dict[int, float] = {}
    candidates = [h.host_id for h in internet.hosts if h.host_id != host_id]
    picks = rng.choice(np.asarray(candidates), size=min(n_traceroute_targets, len(candidates)), replace=False)
    for destination in picks:
        trace = tracer.trace(host_id, int(destination))
        for hop in trace.hops[:max_routers]:
            if not hop.responded or hop.router_id in seen:
                continue
            rtt = pinger.ping_router(host_id, hop.router_id)
            if rtt is None and hop.rtt_ms is not None:
                rtt = hop.rtt_ms
            if rtt is not None:
                seen[hop.router_id] = float(rtt)
    return [UclEntry(router_id=r, latency_ms=lat) for r, lat in seen.items()]


@dataclass
class UclQueryStats:
    """Cost accounting for one UCL-based nearest-peer query."""

    candidates_retrieved: int = 0
    candidates_after_filter: int = 0
    probes: int = 0
    map_operations: int = 0


class UclMap:
    """The router -> peers key-value mapping.

    ``backend`` is anything with ``put(key, value)`` / ``get(key) -> set``
    — a plain :class:`DictBackend` for perfect-map evaluations (the paper's
    "we assume a perfect key-value map here") or a
    :class:`~repro.dht.kvstore.DhtKeyValueStore` for the deployable system.
    """

    def __init__(self, internet: SyntheticInternet, backend=None) -> None:
        self._internet = internet
        self._backend = backend if backend is not None else DictBackend()
        self._ucl_cache: dict[int, list[UclEntry]] = {}

    def insert_peer(self, peer_id: int, ucl: list[UclEntry]) -> None:
        """Publish ``peer_id`` under each of its upstream routers."""
        self._ucl_cache[peer_id] = ucl
        for entry in ucl:
            self._backend.put(entry.router_id, (peer_id, entry.latency_ms))

    def remove_peer(self, peer_id: int) -> None:
        """Withdraw a departed peer's mappings."""
        ucl = self._ucl_cache.pop(peer_id, [])
        for entry in ucl:
            if hasattr(self._backend, "remove"):
                self._backend.remove(entry.router_id, (peer_id, entry.latency_ms))

    def find_nearest(
        self,
        new_peer: int,
        ucl: list[UclEntry],
        max_estimate_ms: float | None = None,
        probe_budget: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> tuple[int | None, float | None, UclQueryStats]:
        """Find the nearest published peer sharing an upstream router.

        Candidates are ranked by the latency estimate
        ``lat(new_peer, router) + lat(candidate, router)`` minimised over
        shared routers; candidates whose estimate exceeds
        ``max_estimate_ms`` are dropped unprobed (the paper's answer to the
        prefix heuristic's false-positive cost).  Returns
        ``(peer, measured_latency, stats)`` with ``(None, None, stats)``
        when no candidate shares a router.
        """
        rng = make_rng(seed)
        stats = UclQueryStats()
        estimates: dict[int, float] = {}
        for entry in ucl:
            stats.map_operations += 1
            for candidate, candidate_latency in self._backend.get(entry.router_id):
                if candidate == new_peer:
                    continue
                estimate = entry.latency_ms + candidate_latency
                if candidate not in estimates or estimate < estimates[candidate]:
                    estimates[candidate] = estimate
        stats.candidates_retrieved = len(estimates)
        if max_estimate_ms is not None:
            estimates = {
                c: e for c, e in estimates.items() if e <= max_estimate_ms
            }
        stats.candidates_after_filter = len(estimates)
        if not estimates:
            return None, None, stats

        ranked = sorted(estimates, key=estimates.get)
        if probe_budget is not None:
            ranked = ranked[:probe_budget]
        best_peer, best_latency = probe_nearest(self._internet, new_peer, ranked, rng)
        stats.probes = len(ranked)
        return best_peer, best_latency, stats


class DictBackend:
    """Perfect in-process key-value map (multi-valued)."""

    def __init__(self) -> None:
        self._data: dict = {}

    def put(self, key, value) -> None:
        self._data.setdefault(key, set()).add(value)

    def get(self, key) -> set:
        return self._data.get(key, set())

    def remove(self, key, value) -> None:
        values = self._data.get(key)
        if values is not None:
            values.discard(value)


def city_pair_latencies(
    internet: SyntheticInternet,
    peer_ids: list[int],
    max_pairs_per_city: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per city, peer pairs and their RTTs — Figs 10 and 11's enumerator.

    Close pairs can only occur between peers whose PoPs share a city (hub
    latencies alone exceed the 10 ms threshold otherwise), so pairs are
    enumerated per city, cities in first-seen order.  A city's pairs are
    its ``np.triu_indices`` pairs (row-major, ``i < j`` in ``peer_ids``
    order); past ``max_pairs_per_city`` they are subsampled with one
    ``rng.choice`` draw, in draw order.  Yields ``(i, j, latency_ms)``
    with ``i`` and ``j`` indices into ``peer_ids``.
    """
    by_city: dict[str, list[int]] = {}
    for index, peer in enumerate(peer_ids):
        city = internet.pop(internet.host(peer).pop_id).city
        by_city.setdefault(city, []).append(index)
    hosts = np.asarray(peer_ids, dtype=int)
    for members in by_city.values():
        if len(members) < 2:
            continue
        first, second = np.triu_indices(len(members), k=1)
        if first.size > max_pairs_per_city:
            picks = rng.choice(first.size, size=max_pairs_per_city, replace=False)
            first, second = first[picks], second[picks]
        i = np.asarray(members)[first]
        j = np.asarray(members)[second]
        yield i, j, internet.pair_latencies(np.column_stack([hosts[i], hosts[j]]))


def hop_length_vs_latency(
    internet: SyntheticInternet,
    peer_ids: list[int],
    max_latency_ms: float = 10.0,
    max_pairs_per_pop: int = 4000,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(latency, hop_length) samples for close peer pairs — Fig 10's data.

    Enumerates pairs within each city (:func:`city_pair_latencies`) and
    keeps those under ``max_latency_ms``; only those are routed, for their
    hop length.  ``hop_length`` counts links, so "the number of routers to
    be tracked in order to discover peers at a given latency ... is half
    the corresponding hop-length value".
    """
    if max_latency_ms <= 0:
        raise DataError("max_latency_ms must be positive")
    hosts = np.asarray(peer_ids, dtype=int)
    latencies: list[float] = []
    hop_lengths: list[int] = []
    for i, j, latency in city_pair_latencies(
        internet, peer_ids, max_pairs_per_pop, make_rng(seed)
    ):
        close = latency <= max_latency_ms
        latencies.extend(latency[close].tolist())
        hop_lengths.extend(
            internet.route(a, b).hop_length
            for a, b in zip(hosts[i[close]].tolist(), hosts[j[close]].tolist())
        )
    return np.asarray(latencies), np.asarray(hop_lengths, dtype=int)
