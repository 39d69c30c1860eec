"""The daemon's simulated network path: path RTTs and the fault layer."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.netsim.engine import EventLoop
from repro.topology.oracle import LatencyOracle
from repro.util.errors import SimulationError


class FaultModel:
    """The broken-network layer: what happens to a probe besides its RTT.

    A fault model sits next to a :class:`Network` and answers, for each
    probe in a fan-out, *when* its outcome is known at the prober and
    *whether* it was an answer or a timeout.  Four failure mechanisms
    compose:

    * **per-link loss** — each attempt is dropped independently with the
      cluster-pair loss probability (``loss_matrix[c(src), c(dst)]``);
    * **scheduled outages/partitions** — while an outage over a cluster
      region is active, any attempt whose path crosses the region boundary
      is dropped deterministically (attempts *sent* after the outage ends
      go through: retransmits ride out short partitions);
    * **NAT-ed peers** — a probe to a NAT-ed destination cannot go direct;
      it relays through the destination's designated reachable peer, and
      the detour RTT (``d(src, relay) + d(relay, dst)``) is billed in
      place of the direct path time;
    * **clock skew** — retransmit timers are armed on the *prober's*
      clock, so its timeout waits are scaled by the per-node skew factor.

    Lost attempts are retransmitted with exponential backoff up to
    ``max_retransmits`` times; a probe whose every attempt is lost *times
    out* at the sum of its waits and reports no measurement.  All
    randomness comes from the generator the caller passes to
    :meth:`apply` — a dedicated fault stream, so attaching a fault model
    never perturbs workload or algorithm draws.
    """

    def __init__(
        self,
        host_cluster: np.ndarray,
        *,
        loss_matrix: np.ndarray | None = None,
        outages: Sequence[tuple[float, float, Sequence[int]]] = (),
        natted: np.ndarray | None = None,
        relay_of: np.ndarray | None = None,
        skew: np.ndarray | None = None,
        probe_timeout_ms: float = 400.0,
        max_retransmits: int = 2,
        retransmit_backoff: float = 2.0,
        query_retry_ms: float = 200.0,
        query_retry_backoff: float = 2.0,
    ) -> None:
        self.host_cluster = np.asarray(host_cluster, dtype=np.int64)
        n = self.host_cluster.size
        if loss_matrix is not None:
            loss_matrix = np.asarray(loss_matrix, dtype=float)
            if loss_matrix.min() < 0.0 or loss_matrix.max() >= 1.0:
                raise SimulationError("loss rates must be in [0, 1)")
        self.loss_matrix = loss_matrix
        self.outages = tuple(
            (float(start), float(end), tuple(int(c) for c in clusters))
            for start, end, clusters in outages
        )
        for start, end, _ in self.outages:
            if not 0.0 <= start < end:
                raise SimulationError(f"bad outage window [{start}, {end})")
        if natted is not None:
            natted = np.asarray(natted, dtype=bool)
            if natted.size != n:
                raise SimulationError("natted mask must cover every host")
            if natted.any() and relay_of is None:
                raise SimulationError("NAT-ed hosts need a relay_of map")
        self.natted = natted
        self.relay_of = (
            None if relay_of is None else np.asarray(relay_of, dtype=np.int64)
        )
        self.skew = np.ones(n) if skew is None else np.asarray(skew, dtype=float)
        if self.skew.size != n or self.skew.min() <= 0.0:
            raise SimulationError("skew factors must be positive, one per host")
        if probe_timeout_ms <= 0 or query_retry_ms <= 0:
            raise SimulationError("timeouts must be positive")
        if max_retransmits < 0:
            raise SimulationError("max_retransmits must be >= 0")
        if retransmit_backoff < 1.0 or query_retry_backoff < 1.0:
            raise SimulationError("backoff factors must be >= 1")
        self.probe_timeout_ms = float(probe_timeout_ms)
        self.max_retransmits = int(max_retransmits)
        self.retransmit_backoff = float(retransmit_backoff)
        self.query_retry_ms = float(query_retry_ms)
        self.query_retry_backoff = float(query_retry_backoff)
        self.active = bool(
            (self.loss_matrix is not None and self.loss_matrix.max() > 0.0)
            or self.outages
            or (self.natted is not None and self.natted.any())
            or bool((self.skew != 1.0).any())
        )

    # -- per-mechanism pieces -----------------------------------------------

    def _relay_detours(
        self, oracle: LatencyOracle, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(relayed mask, extra detour ms) for probes to NAT-ed targets."""
        k = srcs.size
        extra = np.zeros(k)
        if self.natted is None or not self.natted.any():
            return np.zeros(k, dtype=bool), extra
        relayed = self.natted[dsts]
        if not relayed.any():
            return relayed, extra
        idx = np.flatnonzero(relayed)
        # Fan-outs share a destination (the query target), so group the
        # detour lookups by (relay, dst): one batched column per group.
        for dst in np.unique(dsts[idx]):
            rows = idx[dsts[idx] == dst]
            relay = int(self.relay_of[dst])
            to_relay = oracle.latency_block(srcs[rows], [relay])[:, 0]
            detour = to_relay + oracle.latency_ms(relay, int(dst))
            direct = oracle.latency_block(srcs[rows], [int(dst)])[:, 0]
            extra[rows] = np.maximum(0.0, detour - direct)
        return relayed, extra

    def _blocked(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        relayed: np.ndarray,
        send_times: np.ndarray,
    ) -> np.ndarray:
        """(attempts, k) mask of attempts blocked by an active partition."""
        blocked = np.zeros(send_times.shape, dtype=bool)
        if not self.outages:
            return blocked
        c_src = self.host_cluster[srcs]
        c_dst = self.host_cluster[dsts]
        c_rel = (
            self.host_cluster[self.relay_of[dsts]]
            if self.relay_of is not None
            else c_dst
        )
        for start, end, clusters in self.outages:
            region = np.asarray(clusters, dtype=np.int64)
            in_src = np.isin(c_src, region)
            in_dst = np.isin(c_dst, region)
            crosses = in_src != in_dst
            if relayed.any():
                # A relayed probe takes two hops; either crossing blocks it.
                in_rel = np.isin(c_rel, region)
                via = (in_src != in_rel) | (in_rel != in_dst)
                crosses = np.where(relayed, via, crosses)
            active = (send_times >= start) & (send_times < end)
            blocked |= active & crosses[None, :]
        return blocked

    # -- the round outcome --------------------------------------------------

    def apply(
        self,
        rng: np.random.Generator,
        oracle: LatencyOracle,
        srcs: np.ndarray,
        dsts: np.ndarray,
        base_delays: np.ndarray,
        now: float,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
        """Fault outcome of one probe fan-out issued at time ``now``.

        Returns ``(delays, answered, stats)``: per-probe completion delays
        (answer arrival, or timeout exhaustion for unanswered probes), the
        boolean answered mask, and the counter increments
        (``dropped`` / ``retransmitted`` / ``timed_out`` / ``relayed`` /
        ``relay_extra_ms``).  Draw shape per round is fixed at
        ``(max_retransmits + 1, k)`` so the fault stream's consumption
        depends only on the round sizes — not on the outcomes — keeping
        each job's outcomes invariant to how jobs interleave.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        k = srcs.size
        attempts = self.max_retransmits + 1
        relayed, extra = self._relay_detours(oracle, srcs, dsts)
        travel = np.asarray(base_delays, dtype=float) + extra
        if self.loss_matrix is not None:
            p = self.loss_matrix[self.host_cluster[srcs], self.host_cluster[dsts]]
        else:
            p = np.zeros(k)
        # Attempt i is (re)sent after i timeout waits on the prober's clock.
        waits = (
            self.probe_timeout_ms
            * (self.retransmit_backoff ** np.arange(attempts))[:, None]
            * self.skew[srcs][None, :]
        )
        wait_before = np.vstack([np.zeros((1, k)), np.cumsum(waits, axis=0)])
        send_times = now + wait_before[:-1]
        lost = (rng.random((attempts, k)) < p[None, :]) | self._blocked(
            srcs, dsts, relayed, send_times
        )
        ok = ~lost
        answered = ok.any(axis=0)
        first_ok = np.argmax(ok, axis=0)
        cols = np.arange(k)
        delays = np.where(
            answered, wait_before[first_ok, cols] + travel, wait_before[-1]
        )
        attempts_lost = np.where(answered, first_ok, attempts)
        stats = {
            "dropped": int(attempts_lost.sum()),
            "retransmitted": int(
                np.minimum(attempts_lost, attempts - 1).sum()
            ),
            "timed_out": int(k - answered.sum()),
            "relayed": int(relayed.sum()),
            "relay_extra_ms": float(extra.sum()),
        }
        return delays, answered, stats


class Network:
    """The daemon's wire: one simulated clock, one oracle, one fault model.

    :meth:`path_rtts` prices the coordination hop a round trip costs;
    :meth:`apply_faults` runs a probe fan-out through the fault model and
    keeps the run's relay-detour total.  Per-probe drop, retransmit,
    timeout and relay counts are billed to each query job, not here.
    """

    def __init__(
        self,
        loop: EventLoop,
        oracle: LatencyOracle,
        fault_model: FaultModel | None = None,
    ) -> None:
        self.loop = loop
        self.oracle = oracle
        self.fault_model = fault_model
        #: Extra path time NAT relays added over the run (ms).
        self.relay_extra_ms = 0.0

    def path_rtts(
        self, src: int, dsts: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """One vectorised RTT draw along the ``src -> dst`` network paths.

        One ``latencies_from`` call on the oracle.  The daemon's
        dispatch-RTT charging prices the coordination hop (entry node
        asking peer *p* to probe) through here.
        """
        return self.oracle.latencies_from(int(src), np.asarray(dsts, dtype=int))

    def apply_faults(
        self,
        rng: np.random.Generator,
        srcs: np.ndarray,
        dsts: np.ndarray,
        base_delays: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
        """Run one fan-out through the fault model at the loop's clock."""
        assert self.fault_model is not None
        delays, answered, stats = self.fault_model.apply(
            rng, self.oracle, srcs, dsts, base_delays, self.loop.now
        )
        self.relay_extra_ms += float(stats["relay_extra_ms"])
        return delays, answered, stats
