"""Meridian overlay: per-node ring membership over a latency oracle.

The paper runs "the Meridian simulator used in the Meridian paper", which
populates each node's rings from the full latency matrix and keeps at most
``ring_size`` diverse members per ring.  :meth:`MeridianOverlay.build`
reproduces that converged state directly:

* every other member is a ring candidate (``knowledge_sample=None``), or a
  uniform sample of them (modelling an under-gossiped overlay — used by the
  ablation benchmarks);
* each over-full ring is first subsampled to ``candidate_pool`` entries
  (gossip only ever surfaces a bounded candidate set per ring) and then
  reduced to ``ring_size`` members by diversity selection
  (:mod:`repro.meridian.selection`).

Churn-time upkeep of that structure — the gossip-style ring-repair pass
that re-fattens rings after departures — lives in
:mod:`repro.meridian.gossip`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.meridian.rings import RingStructure
from repro.meridian.selection import select_hypervolume, select_maxmin
from repro.topology.oracle import (
    LatencyOracle,
    oracle_pairwise,
    oracle_probe_many,
)
from repro.util.errors import ConfigurationError, DataError
from repro.util.rng import make_rng
from repro.util.validate import require_in_range, require_positive


@dataclass(frozen=True)
class MeridianConfig:
    """Overlay and query parameters (paper defaults where stated)."""

    rings: RingStructure = field(default_factory=RingStructure)
    ring_size: int = 16  # paper: "number of neighbors per ring set to 16"
    beta: float = 0.5  # paper: "β set to 0.5"
    candidate_pool: int = 48  # ring candidates surfaced before selection
    # What fraction of the membership a node has ever heard of.  Meridian's
    # gossip gives each node a partial view; 0.2 reproduces the paper's
    # accuracy regime (Fig 8's rise-to-peak-at-25-then-collapse).  Set to
    # None (with knowledge_sample=None) for an idealised full-knowledge
    # overlay.
    knowledge_fraction: float | None = 0.2
    knowledge_sample: int | None = None  # absolute override of the fraction
    selection: str = "maxmin"  # or "hypervolume"
    max_hops: int = 64

    def __post_init__(self) -> None:
        require_positive(self.ring_size, "ring_size")
        require_in_range(self.beta, "beta", 0.0, 1.0)
        require_positive(self.candidate_pool, "candidate_pool")
        if self.candidate_pool < self.ring_size:
            raise ConfigurationError("candidate_pool must be >= ring_size")
        if self.knowledge_sample is not None:
            require_positive(self.knowledge_sample, "knowledge_sample")
        if self.knowledge_fraction is not None:
            require_in_range(self.knowledge_fraction, "knowledge_fraction", 0.0, 1.0)
        if self.selection not in ("maxmin", "hypervolume"):
            raise ConfigurationError(
                f"selection must be 'maxmin' or 'hypervolume', got {self.selection!r}"
            )

    def knowledge_size(self, n_members: int) -> int | None:
        """How many members one node knows of, or ``None`` for all."""
        if self.knowledge_sample is not None:
            return min(self.knowledge_sample, n_members - 1)
        if self.knowledge_fraction is not None and self.knowledge_fraction < 1.0:
            return max(
                self.ring_size, int(round(self.knowledge_fraction * (n_members - 1)))
            )
        return None


class MeridianNode:
    """One overlay member: rings mapping member id -> measured latency."""

    def __init__(self, node_id: int, config: MeridianConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.rings: list[dict[int, float]] = [
            {} for _ in range(config.rings.ring_count)
        ]
        #: Highest total ring occupancy this node ever held.  Ring caps
        #: and the latency distribution bound what a node's rings *can*
        #: hold (a clustered world concentrates members into a few capped
        #: rings), so repair targets are set relative to this demonstrated
        #: capacity, not the raw knowledge size.
        self.peak_occupancy = 0

    def ring_of(self, latency_ms: float) -> int:
        return self.config.rings.ring_index(latency_ms)

    def insert(self, member: int, latency_ms: float) -> None:
        """Place ``member`` in the ring its latency dictates (uncapped)."""
        if member == self.node_id:
            raise DataError("a node cannot be its own ring member")
        self.rings[self.ring_of(latency_ms)][member] = latency_ms
        self.note_peak()

    def note_peak(self) -> None:
        """Fold the current occupancy into :attr:`peak_occupancy`."""
        count = self.member_count()
        if count > self.peak_occupancy:
            self.peak_occupancy = count

    def evict(self, member: int) -> bool:
        """Drop ``member`` from whichever ring holds it.

        The churn-maintenance counterpart of :meth:`insert`: departures
        and ring-capacity overflows both remove entries through here.
        Returns ``False`` when the node never knew the member.
        """
        for ring in self.rings:
            if member in ring:
                del ring[member]
                return True
        return False

    def all_members(self) -> dict[int, float]:
        """Union of all rings: member -> latency."""
        merged: dict[int, float] = {}
        for ring in self.rings:
            merged.update(ring)
        return merged

    def members_within(self, low_ms: float, high_ms: float) -> list[int]:
        """Ring members whose measured latency lies in ``[low, high]``.

        This is the query-time band ``(1 ± beta) * d``; only rings
        overlapping the band are scanned.
        """
        result = []
        structure = self.config.rings
        for index, ring in enumerate(self.rings):
            inner, outer = structure.ring_bounds(index)
            if outer < low_ms or inner > high_ms:
                continue
            result.extend(m for m, lat in ring.items() if low_ms <= lat <= high_ms)
        return result

    def member_count(self) -> int:
        return sum(len(r) for r in self.rings)


class MeridianOverlay:
    """A set of Meridian nodes built over a latency oracle."""

    def __init__(
        self,
        config: MeridianConfig,
        member_ids: np.ndarray,
        nodes: dict[int, MeridianNode],
    ) -> None:
        self.config = config
        self.member_ids = member_ids
        self.nodes = nodes

    @property
    def n_members(self) -> int:
        return int(self.member_ids.size)

    def node(self, node_id: int) -> MeridianNode:
        return self.nodes[node_id]

    def occupancy_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Ring occupancy state of every member, struct-of-arrays.

        Returns ``(counts, peaks)`` aligned with :attr:`member_ids` —
        each node's current total ring occupancy and its
        :attr:`~MeridianNode.peak_occupancy` high-water mark.  The repair
        pass derives every node's floor and selects the underfull set
        from these in one vectorised comparison instead of a per-node
        Python scan.
        """
        ids = self.member_ids
        counts = np.fromiter(
            (self.nodes[int(i)].member_count() for i in ids),
            dtype=np.int64,
            count=ids.size,
        )
        peaks = np.fromiter(
            (self.nodes[int(i)].peak_occupancy for i in ids),
            dtype=np.int64,
            count=ids.size,
        )
        return counts, peaks

    def add_node(self, node: MeridianNode) -> None:
        """Admit a populated node into the overlay (membership join)."""
        if node.node_id in self.nodes:
            raise DataError(f"node {node.node_id} is already an overlay member")
        self.nodes[node.node_id] = node
        self.member_ids = np.append(self.member_ids, node.node_id)

    def remove_node(self, node_id: int) -> MeridianNode:
        """Drop a member from the overlay (membership leave).

        Only removes the node itself; surviving nodes' ring entries for it
        must be evicted by the caller (see :meth:`MeridianNode.evict`), the
        way real departures are noticed ring by ring.
        """
        try:
            node = self.nodes.pop(node_id)
        except KeyError:
            raise DataError(f"node {node_id} is not an overlay member") from None
        self.member_ids = self.member_ids[self.member_ids != node_id]
        return node

    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        oracle: LatencyOracle,
        member_ids: np.ndarray | list[int],
        config: MeridianConfig | None = None,
        seed: int | np.random.Generator | None = None,
        probe_many=None,
        pairwise=None,
    ) -> "MeridianOverlay":
        """Construct the converged overlay (see module docstring).

        Measurements go through the ``probe_many(src, nodes)`` /
        ``pairwise(nodes)`` callables, defaulting to the raw oracle
        (standalone construction is the offline phase).  An algorithm
        embedding the overlay passes its counted channels instead, so a
        build re-run under maintenance accounting bills every probe.
        """
        config = config or MeridianConfig()
        rng = make_rng(seed)
        members = np.asarray(member_ids, dtype=int)
        if members.size < 2:
            raise DataError("an overlay needs at least two members")
        if probe_many is None:
            probe_many = oracle_probe_many(oracle)
        if pairwise is None:
            pairwise = oracle_pairwise(oracle)
        # Ring edges for vectorised assignment: index i covers (edge[i-1], edge[i]].
        edges = np.array(config.rings.outer_edges())

        nodes: dict[int, MeridianNode] = {}
        knowledge = config.knowledge_size(members.size)
        for position, node_id in enumerate(members):
            node = MeridianNode(int(node_id), config)
            others = np.delete(members, position)
            if knowledge is not None and knowledge < others.size:
                others = rng.choice(others, size=knowledge, replace=False)
            # One batched row per node instead of a scalar probe per member.
            latencies = probe_many(int(node_id), others)
            populate_node_rings(
                node,
                others,
                latencies,
                rng,
                pairwise,
                edges=edges,
            )
            nodes[int(node_id)] = node
        return cls(config=config, member_ids=members, nodes=nodes)

    def evict_everywhere(self, departed) -> None:
        """Drop every departed id from every surviving node's rings.

        The overlay-wide counterpart of :meth:`MeridianNode.evict`, run
        after :meth:`remove_node` — real departures are noticed ring by
        ring, so this is free (no measurements).
        """
        departed = [int(x) for x in departed]
        for node in self.nodes.values():
            for x in departed:
                node.evict(x)


def populate_node_rings(
    node: MeridianNode,
    others: np.ndarray,
    latencies: np.ndarray,
    rng: np.random.Generator,
    pairwise,
    edges: np.ndarray | None = None,
) -> None:
    """File ``others`` (with measured ``latencies``) into ``node``'s rings.

    The one ring-population discipline shared by the converged build and
    incremental joins: vectorised ring binning, ``candidate_pool``
    subsampling of over-full rings, then diversity selection over the
    pairwise block ``pairwise(candidates)`` — the caller chooses how that
    block is measured (raw oracle at build time, counted maintenance
    probes on a join), so both paths bucket and select identically.
    """
    config = node.config
    ring_count = config.rings.ring_count
    if edges is None:
        edges = np.array(config.rings.outer_edges())
    ring_index = np.searchsorted(edges, latencies, side="left")
    for ring in range(ring_count):
        mask = ring_index == ring
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        candidates = others[mask]
        cand_lat = latencies[mask]
        if count > config.candidate_pool:
            pick = rng.choice(count, size=config.candidate_pool, replace=False)
            candidates = candidates[pick]
            cand_lat = cand_lat[pick]
        for idx in _select_ring_members(candidates, config, pairwise):
            node.rings[ring][int(candidates[idx])] = float(cand_lat[idx])
    node.note_peak()


def insert_with_cap(
    node: MeridianNode, member: int, latency_ms: float, rng: np.random.Generator
) -> None:
    """Incremental insert: file ``member`` and randomly evict on overflow.

    Meridian's incremental behaviour between periodic re-selections —
    used by join advertisements and the ring-repair pass, so a capped
    ring stays at ``ring_size`` without paying a diversity-selection
    block per insert.
    """
    node.insert(member, latency_ms)
    ring = node.rings[node.ring_of(latency_ms)]
    if len(ring) > node.config.ring_size:
        victim = int(rng.choice(list(ring)))
        del ring[victim]


def _select_ring_members(
    candidates: np.ndarray,
    config: MeridianConfig,
    pairwise,
) -> "list[int] | range":
    """Indices (into ``candidates``) of the members a ring retains.

    ``pairwise`` supplies the O(k²) pairwise measurements as one dense
    block (callers choose the oracle and the accounting — raw build
    probes, counted maintenance probes, or the gossip simulator's final
    pass); both selection strategies then run on the block with numpy
    argmax/argsort operations only.
    """
    if candidates.size <= config.ring_size:
        return range(candidates.size)
    block = np.asarray(pairwise(candidates), dtype=float)
    if config.selection == "maxmin":
        return select_maxmin(block, config.ring_size)
    return select_hypervolume(block, config.ring_size)
