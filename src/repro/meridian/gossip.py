"""Gossip-based Meridian ring maintenance on the event simulator.

The direct overlay constructor in :mod:`repro.meridian.overlay` reproduces
Meridian's *converged* state; this module runs the actual protocol dynamics:
each node periodically picks a random acquaintance, requests a sample of its
ring members, probes the returned nodes and files them into rings.  Used by
tests (to show the direct construction approximates the protocol's fixed
point) and by the quickstart example.

The same ``ring_request``/``ring_reply`` exchange, collapsed off the event
loop, powers the churn-time **ring-repair pass**
(:func:`repair_overlay_rings`): after departures thin an overlay's rings,
each underfull node pulls candidate samples from its surviving ring
neighbours (free metadata, as a gossip reply is), probes the unknown ones
through the caller's counted-maintenance channel and files them back into
rings — which is how a live deployment re-fattens rings without waiting for
fresh arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.meridian.overlay import MeridianConfig, MeridianNode, MeridianOverlay
from repro.netsim.engine import EventHandle, EventLoop
from repro.netsim.network import Message, Network, SimNode
from repro.topology.oracle import LatencyOracle, oracle_probe_many
from repro.util.errors import DataError
from repro.util.rng import make_rng


@dataclass(frozen=True)
class GossipConfig:
    """Protocol timing and sizing."""

    period_ms: float = 2_000.0  # ring-maintenance interval
    exchange_size: int = 16  # members shared per gossip exchange
    initial_contacts: int = 8  # bootstrap acquaintances per node
    jitter_ms: float = 500.0  # desynchronises the periodic timers


class GossipMeridianNode(SimNode):
    """A Meridian node whose rings are fed by gossip exchanges."""

    def __init__(
        self,
        node_id: int,
        meridian_config: MeridianConfig,
        gossip_config: GossipConfig,
        probe_oracle: LatencyOracle,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(node_id)
        self.state = MeridianNode(node_id, meridian_config)
        self._gossip = gossip_config
        self._probe_oracle = probe_oracle
        self._probe_many = oracle_probe_many(probe_oracle)
        self._rng = rng

    # -- protocol ----------------------------------------------------------

    def attached(self, network: Network) -> None:
        delay = float(self._rng.uniform(0.0, self._gossip.jitter_ms))
        self.set_timer(delay, "tick")

    def _learn(self, member: int) -> None:
        if member == self.node_id:
            return
        if member in self.state.all_members():
            return
        latency = float(self._probe_many(self.node_id, [member])[0])
        self.state.insert(member, latency)
        self._cap_ring(self.state.ring_of(latency))

    def _learn_many(self, members) -> None:
        """Probe and file a whole gossip exchange as one batched round.

        One ``probe_many`` call over the payload's distinct ids
        replaces the per-member scalar probes of :meth:`_learn`; the
        filing loop then replays the scalar discipline exactly —
        re-checking membership *per item*, so an id evicted by a ring cap
        earlier in the same payload is re-inserted just as the scalar
        loop would.  For noise-free oracles the resulting rings are
        identical; only the probe access pattern changes (the batch may
        measure ids that turn out to be already known).
        """
        distinct = [
            m
            for m in dict.fromkeys(int(m) for m in members)
            if m != self.node_id
        ]
        if not distinct:
            return
        values = dict(zip(distinct, self._probe_many(self.node_id, distinct)))
        for member in (int(m) for m in members):
            if member == self.node_id or member in self.state.all_members():
                continue
            latency = float(values[member])
            self.state.insert(member, latency)
            self._cap_ring(self.state.ring_of(latency))

    def _cap_ring(self, ring_index: int) -> None:
        """Evict a random member when a ring overflows.

        Random eviction (rather than full diversity re-selection on every
        insert) matches Meridian's incremental behaviour; the periodic
        re-selection happens in :func:`run_gossip_overlay`'s final pass.
        """
        ring = self.state.rings[ring_index]
        limit = 2 * self.state.config.ring_size
        if len(ring) > limit:
            victim = self._rng.choice(list(ring))
            del ring[int(victim)]

    def _sample_members(self, count: int) -> list[int]:
        return sample_ring_members(self.state, count, self._rng)

    def on_message(self, message: Message) -> None:
        if message.kind == "tick":
            members = list(self.state.all_members())
            if members:
                partner = int(self._rng.choice(members))
                self.send(partner, "ring_request")
            self.set_timer(self._gossip.period_ms, "tick")
        elif message.kind == "ring_request":
            sample = self._sample_members(self._gossip.exchange_size)
            self.send(message.src, "ring_reply", payload=sample)
        elif message.kind == "ring_reply":
            self._learn_many(message.payload)


#: Exchange rounds one repair pass may spend per underfull node before
#: giving up (overlapping replies from drained neighbours converge fast;
#: this only bounds the pathological fully-overlapping case).
_MAX_REPAIR_ROUNDS = 4


def sample_ring_members(
    state: MeridianNode, count: int, rng: np.random.Generator
) -> list[int]:
    """A gossip reply: a uniform sample of ``state``'s ring members.

    The one exchange payload of the protocol, shared by the live
    simulator's ``ring_request`` handler and the collapsed repair pass.
    """
    members = list(state.all_members())
    if not members:
        return []
    count = min(count, len(members))
    return [int(m) for m in rng.choice(members, size=count, replace=False)]


def repair_overlay_rings(
    overlay: MeridianOverlay,
    probe_many,
    rng: np.random.Generator,
    exchange_size: int = 16,
    occupancy_floor: int | None = None,
) -> int:
    """Gossip-style ring repair after departures; returns nodes repaired.

    Departures only ever *evict* ring entries, so under sustained churn
    rings thin out until arrivals re-fatten them.  This pass runs the
    gossip exchange to quiescence for every node whose total ring
    occupancy fell below its floor:

    1. the node asks surviving ring members for a
       :func:`sample_ring_members` payload each — candidate *identities*
       are gossip metadata and cost nothing, exactly as a ``ring_reply``
       does on the event loop;
    2. previously unknown candidates are probed through ``probe_many``
       (``(node_id, candidates) -> latencies``) — the caller supplies the
       counted-maintenance channel, so every repair measurement is billed;
    3. measured candidates are filed with the incremental random-eviction
       cap (:func:`repro.meridian.overlay.insert_with_cap`).

    The default floor is *per node*: half of the node's own
    :attr:`~repro.meridian.overlay.MeridianNode.peak_occupancy`, capped by
    the live population.  Ring caps and the latency distribution bound
    what a node's rings can structurally hold (in a clustered world most
    members land in a few capped rings), so a floor derived from the raw
    knowledge size can sit *above* that bound — every node then stays
    "underfull" forever and re-repairs on each event.  Half of the
    demonstrated peak is always reachable and leaves repair quiescent
    under steady churn, firing only after genuine drain.  Pass
    ``occupancy_floor`` to pin one explicit floor for every node instead.

    A node with no surviving acquaintances bootstraps from uniformly
    random live members, as a rejoining node would.
    """
    from repro.meridian.overlay import insert_with_cap

    n = overlay.n_members
    if n < 2:
        return 0
    repaired = 0
    member_ids = overlay.member_ids
    # Underfull selection is one vectorised comparison over the overlay's
    # occupancy arrays; nodes at or above their floor never drew from the
    # rng in the scalar scan, so restricting the loop to the underfull
    # set is draw-for-draw identical.
    counts, peaks = overlay.occupancy_vectors()
    if occupancy_floor is not None:
        floors = np.full(member_ids.size, occupancy_floor, dtype=np.int64)
    else:
        floors = np.maximum(1, np.minimum(peaks, n - 1) // 2)
    for index in np.flatnonzero(counts < floors):
        node = overlay.nodes[int(member_ids[index])]
        floor = int(floors[index])
        # Exchange rounds to quiescence: drained neighbours offer thin
        # replies at first, so keep pulling (against progressively
        # repaired views) until the floor is met or a round goes dry.
        for _ in range(_MAX_REPAIR_ROUNDS):
            known = node.all_members()
            deficit = floor - len(known)
            if deficit <= 0:
                break
            neighbours = list(known)
            if not neighbours:
                pool = member_ids[member_ids != node.node_id]
                take = min(max(deficit, 1), pool.size)
                neighbours = [
                    int(m) for m in rng.choice(pool, size=take, replace=False)
                ]
            # Enough exchanges to cover the deficit if replies were disjoint.
            n_partners = min(
                len(neighbours), max(1, -(-deficit // max(1, exchange_size)))
            )
            partners = [
                int(m)
                for m in rng.choice(neighbours, size=n_partners, replace=False)
            ]
            # Bootstrap partners are themselves unknown: probe and file
            # them first, then whatever their replies surface.
            candidates = [p for p in partners if p not in known]
            seen = set(known)
            seen.add(node.node_id)
            seen.update(partners)
            for partner in partners:
                for member in sample_ring_members(
                    overlay.nodes[partner], exchange_size, rng
                ):
                    if member not in seen:
                        seen.add(member)
                        candidates.append(member)
            if len(candidates) > deficit:
                pick = rng.choice(len(candidates), size=deficit, replace=False)
                candidates = [candidates[int(i)] for i in sorted(pick)]
            if not candidates:
                break  # the neighbourhood has nothing new to offer
            latencies = probe_many(
                node.node_id, np.asarray(candidates, dtype=int)
            )
            for member, latency in zip(candidates, latencies):
                insert_with_cap(node, int(member), float(latency), rng)
        if node.member_count() >= floor:
            repaired += 1
    return repaired


class PeriodicRepair:
    """Re-drives ring repair *continuously* on an event loop.

    :func:`repair_overlay_rings` was built as a one-shot pass after a
    departure; a live deployment instead runs the repair gossip as a
    background process.  This driver schedules one repair pass per
    ``period_ms`` of simulated time (the simulated-time query daemon wires
    it to :meth:`repro.algorithms.meridian_search.MeridianSearch.repair_rings`,
    whose measurements are all billed as maintenance), accumulates
    pass/repair/probe totals, and reschedules itself until :meth:`stop` —
    so under sustained churn the overlay's rings are re-fattened on the
    same clock the departures land on, instead of only at leave-event
    boundaries.
    """

    def __init__(
        self,
        loop: EventLoop,
        period_ms: float,
        repair: Callable[[], tuple[int, int]],
    ) -> None:
        if period_ms <= 0:
            raise DataError(f"repair period must be > 0, got {period_ms}")
        self.loop = loop
        self.period_ms = float(period_ms)
        self._repair = repair
        #: Repair passes run so far.
        self.passes = 0
        #: Underfull nodes brought back above their floor, summed over passes.
        self.nodes_repaired = 0
        #: Counted maintenance probes the passes spent, summed.
        self.probes_spent = 0
        self._handle: EventHandle | None = None
        self._stopped = False

    def start(self, initial_delay_ms: float | None = None) -> None:
        """Schedule the first pass (after one period unless overridden)."""
        delay = self.period_ms if initial_delay_ms is None else initial_delay_ms
        self._handle = self.loop.schedule(delay, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        repaired, spent = self._repair()
        self.passes += 1
        self.nodes_repaired += int(repaired)
        self.probes_spent += int(spent)
        self._handle = self.loop.schedule(self.period_ms, self._tick)

    def stop(self) -> None:
        """Cancel the pending pass and stop rescheduling."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


def run_gossip_overlay(
    oracle: LatencyOracle,
    member_ids: np.ndarray | list[int],
    meridian_config: MeridianConfig | None = None,
    gossip_config: GossipConfig | None = None,
    rounds: int = 12,
    seed: int | np.random.Generator | None = None,
) -> MeridianOverlay:
    """Run the gossip protocol and return the resulting overlay.

    The event simulation runs for ``rounds`` maintenance periods, after
    which each over-full ring is reduced by the configured diversity
    selection — Meridian's periodic ring re-selection.
    """
    meridian_config = meridian_config or MeridianConfig()
    gossip_config = gossip_config or GossipConfig()
    rng = make_rng(seed)
    members = np.asarray(member_ids, dtype=int)
    if members.size < 2:
        raise DataError("an overlay needs at least two members")

    loop = EventLoop()
    network = Network(loop, oracle, seed=rng)
    nodes: dict[int, GossipMeridianNode] = {}
    for node_id in members:
        node = GossipMeridianNode(
            int(node_id), meridian_config, gossip_config, oracle, rng
        )
        nodes[int(node_id)] = node
        network.attach(node)
    # Bootstrap: everyone knows a few random contacts (one batched probe
    # round per node instead of a scalar probe per contact).
    for node_id, node in nodes.items():
        others = members[members != node_id]
        contacts = rng.choice(
            others,
            size=min(gossip_config.initial_contacts, others.size),
            replace=False,
        )
        node._learn_many(contacts)

    loop.run_until(rounds * gossip_config.period_ms)

    # Final diversity pass, then freeze into a plain overlay.
    from repro.meridian.overlay import _select_ring_members
    from repro.topology.oracle import oracle_pairwise

    pairwise = oracle_pairwise(oracle)
    frozen: dict[int, MeridianNode] = {}
    for node_id, node in nodes.items():
        state = node.state
        for index, ring in enumerate(state.rings):
            if len(ring) <= meridian_config.ring_size:
                continue
            candidates = np.fromiter(ring.keys(), dtype=int)
            keep = _select_ring_members(
                candidates,
                meridian_config,
                pairwise,
            )
            kept = {int(candidates[i]) for i in keep}
            state.rings[index] = {m: lat for m, lat in ring.items() if m in kept}
        frozen[node_id] = state
    return MeridianOverlay(config=meridian_config, member_ids=members, nodes=frozen)
