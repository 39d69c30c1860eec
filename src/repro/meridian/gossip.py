"""Gossip-style Meridian ring repair under churn.

Departures only ever evict ring entries, so under sustained churn an
overlay's rings thin out.  :func:`repair_overlay_rings` runs Meridian's
gossip exchange off any event loop: each underfull node pulls
:func:`sample_ring_members` payloads from its surviving ring neighbours
(free metadata, as a gossip reply is), measures the unknown candidates
through the caller's ``measure`` channel and files them back
into rings — which is how a live deployment re-fattens rings without
waiting for fresh arrivals.  The query daemon re-drives that pass on its
simulated clock (``DaemonSpec.ring_repair_period_ms``).
"""

from __future__ import annotations

import numpy as np

from repro.meridian.overlay import MeridianNode, MeridianOverlay, insert_with_cap
from repro.topology.oracle import Measure


#: Exchange rounds one repair pass may spend per underfull node before
#: giving up (overlapping replies from drained neighbours converge fast;
#: this only bounds the pathological fully-overlapping case).
_MAX_REPAIR_ROUNDS = 4


def sample_ring_members(
    state: MeridianNode, count: int, rng: np.random.Generator
) -> list[int]:
    """A gossip reply: a uniform sample of ``state``'s ring members.

    The one exchange payload the repair pass pulls from each partner.
    """
    members = list(state.all_members())
    if not members:
        return []
    count = min(count, len(members))
    return [int(m) for m in rng.choice(members, size=count, replace=False)]


def repair_overlay_rings(
    overlay: MeridianOverlay,
    measure: Measure,
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
       are gossip metadata and cost nothing, as in a gossip reply;
    2. previously unknown candidates are measured as one
       ``measure([node_id], candidates)`` row — the caller supplies its
       counted index channel, so every repair measurement is billed as
       maintenance;
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
            latencies = measure([node.node_id], candidates)[0]
            for member, latency in zip(candidates, latencies):
                insert_with_cap(node, int(member), float(latency), rng)
        if node.member_count() >= floor:
            repaired += 1
    return repaired
