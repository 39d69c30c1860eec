"""Simulated ``ping``: RTT measurement to hosts and routers.

The Section 3.1 pipeline "get[s] these latter latencies using the ping
tool": it pings DNS servers and routers from the measurement host and
subtracts.  Pings to routers need router-level routing — the target may sit
in the middle of some end-network's attachment chain — which
:meth:`Pinger.ping_router` resolves through the topology's router anchors.

Noise model: ping reports the minimum of a few probes, so the error is
dominated by residual queueing delay — small, one-sided, and (crucially)
*independent of path length*: subtracting two pings that share most of
their path leaves only the additive error, which is what makes the paper's
leg computation (ping to server minus ping to router) meaningful even for
sub-millisecond legs at transcontinental distances.
"""

from __future__ import annotations

import numpy as np

from repro.topology.internet import SyntheticInternet
from repro.util.rng import make_rng


class Pinger:
    """ICMP-like RTT probes against the synthetic Internet."""

    def __init__(
        self,
        internet: SyntheticInternet,
        seed: int | np.random.Generator | None = None,
        noise_sigma: float = 0.001,
        queueing_scale_ms: float = 0.18,
    ) -> None:
        self._internet = internet
        self._rng = make_rng(seed)
        self._noise_sigma = noise_sigma
        self._queueing_scale_ms = queueing_scale_ms

    def _noisy(self, true_rtt_ms: float) -> float:
        factor = float(np.exp(self._rng.normal(0.0, self._noise_sigma)))
        queueing = float(self._rng.exponential(self._queueing_scale_ms))
        return true_rtt_ms * factor + queueing

    def ping_host(
        self, src_host: int, dst_host: int, true_ms: float | None = None
    ) -> float | None:
        """RTT to a host, or ``None`` when the host drops ICMP.

        ``true_ms`` lets bulk pipelines supply the true RTT from one
        precomputed :meth:`~repro.topology.graph.RouterLevelTopology.latency_matrix`
        block instead of routing per call; noise draws are unaffected, so
        results are bit-identical either way.
        """
        record = self._internet.host(dst_host)
        if not record.responds_to_traceroute:
            return None
        if true_ms is None:
            true_ms = self._internet.latency_ms(src_host, dst_host)
        return self._noisy(true_ms)

    def true_latency_to_router(self, src_host: int, router_id: int) -> float | None:
        """Noise-free RTT from a host to a router (``None`` if unreachable)."""
        internet = self._internet
        for chain_router, cum in internet.upward_chain(src_host):
            if chain_router == router_id:
                return cum
        anchor = internet.router_anchor(router_id)
        if anchor is None:
            return None
        anchor_router, below_ms = anchor
        src_pop_router, src_cum = internet.upward_chain(src_host)[-1]
        if anchor_router == src_pop_router:
            return src_cum + below_ms
        core_ms = internet.core_distance_ms(src_pop_router, anchor_router)
        if core_ms is None:
            return None
        return src_cum + core_ms + below_ms

    def ping_router(self, src_host: int, router_id: int) -> float | None:
        """RTT to a router, or ``None`` when it cannot be reached/anchored."""
        true = self.true_latency_to_router(src_host, router_id)
        if true is None:
            return None
        return self._noisy(true)
