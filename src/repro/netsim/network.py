"""Simulated nodes and latency-faithful message delivery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.netsim.engine import EventHandle, EventLoop
from repro.topology.oracle import (
    LatencyOracle,
    batch_latencies_from,
    batch_latency_block,
)
from repro.util.errors import SimulationError
from repro.util.rng import make_rng


@dataclass(frozen=True)
class Message:
    """A message in flight between two simulated nodes."""

    src: int
    dst: int
    kind: str
    payload: Any = None


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
      Local timer deliveries on the network are scaled the same way.

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

    def timer_scale(self, node_id: int) -> float:
        """Clock-skew factor for timers armed by ``node_id`` (1.0 off-host)."""
        if 0 <= node_id < self.skew.size:
            return float(self.skew[node_id])
        return 1.0

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
            to_relay = batch_latency_block(oracle, srcs[rows], [relay])[:, 0]
            detour = to_relay + oracle.latency_ms(relay, int(dst))
            direct = batch_latency_block(oracle, srcs[rows], [int(dst)])[:, 0]
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


class SimNode:
    """Base class for protocol participants.

    Subclasses override :meth:`on_message`; they send through
    :attr:`network` and schedule timers via :meth:`set_timer`.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.network: "Network | None" = None

    # -- wiring -------------------------------------------------------------

    def attached(self, network: "Network") -> None:
        """Called when the node joins a network (override for setup)."""

    def on_message(self, message: Message) -> None:
        """Handle a delivered message (override)."""

    # -- conveniences ---------------------------------------------------------

    def send(self, dst: int, kind: str, payload: Any = None) -> None:
        """Send a message; it arrives after the one-way delay to ``dst``."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached to a network")
        self.network.send(Message(src=self.node_id, dst=dst, kind=kind, payload=payload))

    def set_timer(self, delay_ms: float, kind: str, payload: Any = None) -> EventHandle:
        """Deliver a message to *self* after ``delay_ms`` (a local timer)."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached to a network")
        return self.network.deliver_later(
            Message(src=self.node_id, dst=self.node_id, kind=kind, payload=payload),
            delay_ms,
        )


class Network:
    """Delivers messages between :class:`SimNode` s using oracle latencies.

    One-way delay is half the oracle RTT; optional loss models flaky links.
    Local timer deliveries bypass the loss model.
    """

    def __init__(
        self,
        loop: EventLoop,
        oracle: LatencyOracle,
        loss_rate: float = 0.0,
        seed: int | np.random.Generator | None = None,
        fault_model: FaultModel | None = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.loop = loop
        self.oracle = oracle
        self.loss_rate = loss_rate
        self.fault_model = fault_model
        self._rng = make_rng(seed)
        self._nodes: dict[int, SimNode] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0
        # Fault-path probe accounting (filled by the daemon's round stepper
        # through apply_faults; silent losses are undebuggable).
        self.probes_dropped = 0
        self.probes_retransmitted = 0
        self.probes_timed_out = 0
        self.probes_relayed = 0
        self.relay_extra_ms = 0.0

    def attach(self, node: SimNode) -> None:
        """Register a node; its id must be unique on this network."""
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id}")
        node.network = self
        self._nodes[node.node_id] = node
        node.attached(self)

    def node(self, node_id: int) -> SimNode:
        return self._nodes[node_id]

    @property
    def node_ids(self) -> list[int]:
        return list(self._nodes)

    def send(self, message: Message) -> None:
        """Queue a message for delivery after the one-way delay."""
        if message.dst not in self._nodes:
            raise SimulationError(f"unknown destination node {message.dst}")
        self.messages_sent += 1
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.messages_lost += 1
            return
        delay = self.oracle.latency_ms(message.src, message.dst) / 2.0
        self.loop.schedule(delay, self._deliver, message)

    def send_many(
        self,
        src: int,
        dsts: np.ndarray | Sequence[int],
        kind: str,
        payloads: Sequence[Any] | None = None,
    ) -> None:
        """Fan one message out from ``src`` to every node in ``dsts``.

        The batched counterpart of N :meth:`send` calls: the loss decisions
        come first as one vectorised draw (the same generator stream, so
        the drop pattern is bit-identical to the scalar loop), then the
        *surviving* destinations' latencies come from a single
        :func:`~repro.topology.oracle.batch_latencies_from` draw instead of
        N scalar ``latency_ms`` calls — exactly the probes the scalar loop
        would have made, so counting/noisy oracle accounting stays exact
        (a lost message never consumes an oracle draw, scalar or batched).
        """
        dsts = np.asarray(dsts, dtype=int)
        if payloads is not None and len(payloads) != dsts.size:
            raise SimulationError(
                f"send_many got {dsts.size} destinations but "
                f"{len(payloads)} payloads"
            )
        unknown = [int(d) for d in dsts if int(d) not in self._nodes]
        if unknown:
            raise SimulationError(f"unknown destination nodes {unknown[:8]}")
        self.messages_sent += int(dsts.size)
        if dsts.size == 0:
            return
        if self.loss_rate:
            kept = self._rng.random(size=dsts.size) >= self.loss_rate
            self.messages_lost += int(dsts.size - kept.sum())
            if payloads is not None:
                payloads = [p for p, keep in zip(payloads, kept) if keep]
            dsts = dsts[kept]
            if dsts.size == 0:
                return
        delays = self.path_rtts(src, dsts) / 2.0
        for i, (dst, delay) in enumerate(zip(dsts, delays)):
            message = Message(
                src=int(src),
                dst=int(dst),
                kind=kind,
                payload=payloads[i] if payloads is not None else None,
            )
            self.loop.schedule(float(delay), self._deliver, message)

    def path_rtts(
        self, src: int, dsts: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """One vectorised RTT draw along the ``src -> dst`` network paths.

        The same oracle draw :meth:`send_many` halves into one-way delays,
        exposed for callers that bill whole round trips — the daemon's
        dispatch-RTT charging prices the coordination hop (entry node
        asking peer *p* to probe) through here.
        """
        return batch_latencies_from(
            self.oracle, int(src), np.asarray(dsts, dtype=int)
        )

    def deliver_later(self, message: Message, delay_ms: float) -> EventHandle:
        """Schedule a direct (loss-free) delivery; used for timers.

        Self-addressed messages are local timers: under an active fault
        model they run on the arming node's skewed clock.
        """
        fm = self.fault_model
        if fm is not None and fm.active and message.src == message.dst:
            delay_ms = delay_ms * fm.timer_scale(message.src)
        return self.loop.schedule(delay_ms, self._deliver, message)

    def apply_faults(
        self,
        rng: np.random.Generator,
        srcs: np.ndarray,
        dsts: np.ndarray,
        base_delays: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
        """Run one fan-out through the fault model and book the counters."""
        assert self.fault_model is not None
        delays, answered, stats = self.fault_model.apply(
            rng, self.oracle, srcs, dsts, base_delays, self.loop.now
        )
        self.probes_dropped += int(stats["dropped"])
        self.probes_retransmitted += int(stats["retransmitted"])
        self.probes_timed_out += int(stats["timed_out"])
        self.probes_relayed += int(stats["relayed"])
        self.relay_extra_ms += float(stats["relay_extra_ms"])
        return delays, answered, stats

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:  # node departed after the message was sent
            return
        self.messages_delivered += 1
        node.on_message(message)
