"""Coordinate-driven nearest-peer search: PIC and a Vivaldi variant.

PIC (Costa et al., ICDCS 2004): every peer carries a Euclidean coordinate;
a joining node computes its own coordinate from probes to a few members,
then launches multiple greedy walks — each hop moves to the neighbour whose
*coordinates* are closest to the target's coordinates — and finally probes
the walks' end candidates to pick the answer.

``PicSearch`` embeds with GNP-style landmarks (PIC's fixed-landmark
variant); ``VivaldiGreedySearch`` reuses the same machinery over Vivaldi
coordinates.  Under the clustering condition the embedding collapses every
cluster to "almost the same coordinates", so the greedy walks cannot find
the right end-network — the failure mode of Section 2.3.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.coords.gnp import GnpConfig, GnpEmbedding, _solve_points
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem, _random_unit
from repro.util.validate import require_positive


class _CoordinateGreedyBase(NearestPeerAlgorithm):
    """Shared machinery: neighbour graph + greedy walks + final probing.

    Maintenance policy: ``incremental``.  A join places each arrival in
    coordinate space from a handful of counted maintenance probes
    (landmarks for PIC, random anchors for Vivaldi) and splices it into
    the neighbour graph both ways; a leave purges the departed node from
    coordinates and neighbour lists for free.  PIC escalates to a counted
    full re-embedding only when departures eat into the landmark set
    faster than trimming can absorb (fewer than ``dimensions + 1``
    landmarks left).
    """

    maintenance_policy = "incremental"

    def __init__(
        self,
        neighbors_per_node: int = 16,
        n_walks: int = 4,
        placement_probes: int = 12,
        final_probe_count: int = 8,
        max_steps: int = 64,
        maintenance=None,
    ) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(neighbors_per_node, "neighbors_per_node")
        require_positive(n_walks, "n_walks")
        self._neighbors_per_node = neighbors_per_node
        self._n_walks = n_walks
        self._placement_probes = placement_probes
        self._final_probe_count = final_probe_count
        self._max_steps = max_steps
        self._neighbors: dict[int, np.ndarray] = {}
        self._positions: dict[int, np.ndarray] = {}

    # -- subclass hooks -------------------------------------------------------

    def _embed_members(self, rng: np.random.Generator) -> dict[int, np.ndarray]:
        raise NotImplementedError

    def _target_anchor_probes(
        self, target: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Placement fan-out: (anchor ids, measured anchor->target RTTs).

        The probe half of target placement — issued as the plan's first
        round, so a latency-faithful driver times it like any other
        fan-out.
        """
        raise NotImplementedError

    def _target_position(
        self,
        anchors: np.ndarray,
        rtts: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Solve the target's coordinate from the placement measurements."""
        raise NotImplementedError

    def _place_member(self, node: int, rng: np.random.Generator) -> np.ndarray:
        """Coordinate for a joining *member* (counted maintenance probes)."""
        raise NotImplementedError

    # -- shared build/query -----------------------------------------------------

    def _build(self, rng: np.random.Generator) -> None:
        self._positions = self._embed_members(rng)
        self._neighbors = {}
        members = self.members
        for node in members:
            node = int(node)
            others = members[members != node]
            count = min(self._neighbors_per_node, others.size)
            self._neighbors[node] = rng.choice(others, size=count, replace=False)

    # -- incremental maintenance ---------------------------------------------

    def _join(self, joined: np.ndarray, rng: np.random.Generator) -> None:
        members = self.members
        # Nodes whose index entries already exist (pre-event members, then
        # each arrival as it is placed) — splice hosts must come from here.
        placed = members[~np.isin(members, joined)]
        for node in joined:
            node = int(node)
            self._positions[node] = self._place_member(node, rng)
            others = members[members != node]
            count = min(self._neighbors_per_node, others.size)
            self._neighbors[node] = rng.choice(others, size=count, replace=False)
            # Splice the arrival into existing out-lists so greedy walks
            # can reach it (build-time graphs have the same in-degree on
            # average: every node appears in ~neighbors_per_node lists).
            hosts = rng.choice(
                placed, size=min(count, placed.size), replace=False
            )
            for host in hosts:
                self._neighbors[int(host)] = np.append(
                    self._neighbors[int(host)], node
                )
            placed = np.append(placed, node)

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        for node in left:
            node = int(node)
            self._positions.pop(node, None)
            self._neighbors.pop(node, None)
        # ``leave`` and ``_defer_event`` update the liveness mask first, so
        # it reads False exactly on the departed neighbours.
        members = self.members
        live = self._member_mask
        for node, neighbours in self._neighbors.items():
            pruned = neighbours[live[neighbours]]
            if pruned.size == 0:  # re-draw: a walk node must have somewhere to go
                others = members[members != node]
                count = min(self._neighbors_per_node, others.size)
                pruned = rng.choice(others, size=count, replace=False)
            self._neighbors[node] = pruned

    def _coordinate_distance(self, node: int, point: np.ndarray) -> float:
        position = self._positions.get(int(node))
        if position is None:
            # The node departed while this plan's probe round was in
            # flight (plans see a membership snapshot, the coordinate
            # index is live): infinitely far, so walks steer away.
            return float("inf")
        return float(np.linalg.norm(position - point))

    def _plan(self, target: int, rng: np.random.Generator):
        # Round 1: placement — the target measures a few anchors so its
        # coordinate can be solved.
        anchors, anchor_rtts = self._target_anchor_probes(target, rng)
        survivors, heard = anchors, anchor_rtts
        if anchors.size:
            _, _, alive = yield from self._offer_round(
                anchors, target, anchor_rtts
            )
            survivors, heard = anchors[alive], anchor_rtts[alive]
        if anchors.size and survivors.size == 0:
            # Every placement probe was lost: solve from nothing is worse
            # than any stored coordinate, so aim the walks at an arbitrary
            # member's position and let the final probe round sort it out.
            target_position = next(iter(self._positions.values())).copy()
        else:
            target_position = self._target_position(survivors, heard, rng)
        visited: set[int] = set()
        end_candidates: dict[int, float] = {}  # node -> coord distance
        hops = 0
        for _ in range(self._n_walks):
            current = int(rng.choice(self.members))
            current_cd = self._coordinate_distance(current, target_position)
            for _ in range(self._max_steps):
                visited.add(current)
                neighbours = self._neighbors.get(current)
                if neighbours is None or len(neighbours) == 0:
                    break  # walk node departed mid-flight; end the walk here
                neighbour_cds = {
                    int(nb): self._coordinate_distance(int(nb), target_position)
                    for nb in neighbours
                }
                best = min(neighbour_cds, key=neighbour_cds.get)
                if neighbour_cds[best] >= current_cd:
                    break
                current, current_cd = best, neighbour_cds[best]
                hops += 1
            end_candidates[current] = current_cd
        # Round 2: probe the best few candidates by coordinate distance
        # (the walks themselves are coordinate-only — no measurements).
        ranked = sorted(end_candidates, key=end_candidates.get)
        finalists = [
            node for node in ranked[: self._final_probe_count] if node != target
        ]
        measured: dict[int, float] = {}
        if finalists:
            values = self.probe_many(finalists, target)
            kept, values, _ = yield from self._offer_round(
                finalists, target, values
            )
            measured = dict(zip(kept, values.tolist()))
        if not measured and finalists:  # every finalist probe was lost
            return self.no_answer(target)
        return self.result(target, measured, hops=hops, path=ranked)



class PicSearch(_CoordinateGreedyBase):
    """PIC: landmark (GNP-style) embedding + greedy walks.

    Maintenance: joins probe the landmarks (``n_landmarks`` maintenance
    probes each) and solve the arrival's coordinate against the fixed
    landmark positions; leaves are free unless they deplete the landmark
    set below ``dimensions + 1``, which triggers one counted re-embedding.
    """

    name = "pic"

    def __init__(self, gnp_config: GnpConfig | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self._gnp_config = gnp_config or GnpConfig()
        self._embedding: GnpEmbedding | None = None

    def _embed_members(self, rng: np.random.Generator) -> dict[int, np.ndarray]:
        self._embedding = GnpEmbedding.build(
            self.offline_probe_block,
            self.members,
            config=self._gnp_config,
            seed=rng,
        )
        return {int(m): self._embedding.position(int(m)) for m in self.members}

    def _target_anchor_probes(
        self, target: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self._embedding is not None
        anchors = np.asarray(self._embedding.landmark_ids, dtype=int)
        return anchors, self.probe_many(anchors, target)

    def _target_position(
        self,
        anchors: np.ndarray,
        rtts: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        embedding = self._embedding
        assert embedding is not None
        current = np.asarray(embedding.landmark_ids, dtype=int)
        if anchors.size == current.size and np.array_equal(anchors, current):
            return embedding.place_external(rtts)
        # The landmark set changed while the anchor round was in flight
        # (a departure trimmed or rebuilt it): solve against whichever
        # probed anchors are still landmarks, at their current positions.
        index = {int(l): i for i, l in enumerate(current)}
        keep = np.array([int(a) in index for a in anchors], dtype=bool)
        if not keep.any():
            return embedding.landmark_positions.mean(axis=0)
        rows = [index[int(a)] for a in anchors[keep]]
        positions = embedding.landmark_positions[rows]
        if len(rows) < positions.shape[1]:
            # Too few surviving anchors to pin a coordinate (loss or churn
            # thinned the round below the embedding dimension): place the
            # target at its closest-measured anchor and let the walks and
            # the final probe round correct from there.
            return positions[int(np.argmin(rtts[keep]))].copy()
        return _solve_points(
            positions, rtts[keep][None, :], positions.mean(axis=0)
        )[0]

    def _place_member(self, node: int, rng: np.random.Generator) -> np.ndarray:
        assert self._embedding is not None
        rtts = self.offline_probe_block(self._embedding.landmark_ids, [node])[:, 0]
        return self._embedding.place_external(rtts)

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        super()._leave(left, kept_mask, rng)
        assert self._embedding is not None
        keep = ~np.isin(self._embedding.landmark_ids, left)
        if keep.all():
            return
        if int(keep.sum()) > self._gnp_config.dimensions:
            # Trim the departed landmarks; remaining positions stay valid.
            self._embedding = GnpEmbedding(
                config=self._embedding.config,
                landmark_ids=self._embedding.landmark_ids[keep],
                landmark_positions=self._embedding.landmark_positions[keep],
                positions={
                    int(m): self._positions[int(m)] for m in self.members
                },
            )
            return
        # Landmark set depleted: one counted full re-embedding.  GNP
        # measures every landmark pair plus each other member against the
        # landmarks through the index channel, which bills it as
        # maintenance.  Extreme churn can shrink the membership
        # below the configured landmark count; the embedding then degrades
        # to what the survivors can support rather than crashing
        # mid-trial: fewer landmarks, and a dimensionality capped at
        # ``(L - 1) // 2`` so the joint landmark solve keeps at least as
        # many residuals (L(L-1)/2 pairs) as variables (L·d).
        if self.members.size == 2:
            # Two survivors: the exact 1-D embedding (0 and their RTT).
            a, b = (int(m) for m in self.members)
            rtt = float(self.offline_probe_block([a], [b])[0, 0])
            self._gnp_config = GnpConfig(dimensions=1, n_landmarks=2)
            self._embedding = GnpEmbedding(
                config=self._gnp_config,
                landmark_ids=np.array([a, b]),
                landmark_positions=np.array([[0.0], [rtt]]),
                positions={a: np.array([0.0]), b: np.array([rtt])},
            )
            self._positions = {a: np.array([0.0]), b: np.array([rtt])}
            self.rebuild_count += 1
            return
        n_landmarks = min(self._gnp_config.n_landmarks, self.members.size)
        dimensions = min(
            self._gnp_config.dimensions, max(1, (n_landmarks - 1) // 2)
        )
        if (n_landmarks, dimensions) != (
            self._gnp_config.n_landmarks,
            self._gnp_config.dimensions,
        ):
            self._gnp_config = GnpConfig(
                dimensions=dimensions, n_landmarks=n_landmarks
            )
        self.rebuild_count += 1
        self._build(rng)


class VivaldiGreedySearch(_CoordinateGreedyBase):
    """Vivaldi coordinates + greedy walks.

    Maintenance: joins probe ``placement_probes`` random anchors and
    spring-relax the arrival against the anchors' fixed coordinates;
    leaves purge coordinates and shrink the anchor pool for free (the
    embedded system never needs a rebuild — coordinates are per-node).
    """

    name = "vivaldi-greedy"

    def __init__(
        self,
        vivaldi_config: VivaldiConfig | None = None,
        vivaldi_rounds: int = 24,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self._vivaldi_config = vivaldi_config or VivaldiConfig(use_height=False)
        self._vivaldi_rounds = vivaldi_rounds
        self._system: VivaldiSystem | None = None
        # Members the embedded system can place external nodes against
        # (build-time members still present; joiners are placed against
        # these but never enter the system itself).
        self._anchor_pool: np.ndarray | None = None

    def _embed_members(self, rng: np.random.Generator) -> dict[int, np.ndarray]:
        self._system = VivaldiSystem(
            self.members, config=self._vivaldi_config, seed=rng
        )
        self._system.run(self.offline_probe_block, rounds=self._vivaldi_rounds)
        self._anchor_pool = self.members.copy()
        return {
            int(m): self._system.positions[i].copy()
            for i, m in enumerate(self.members)
        }

    def _target_anchor_probes(
        self, target: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self._anchor_pool is not None
        anchors = rng.choice(
            self._anchor_pool,
            size=min(self._placement_probes, self._anchor_pool.size),
            replace=False,
        )
        return anchors, self.probe_many(anchors, target)

    def _target_position(
        self,
        anchors: np.ndarray,
        rtts: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self._system is not None:
            # The system retains every build-time member's coordinate,
            # so even anchors that departed mid-flight still resolve.
            measured = {int(a): float(v) for a, v in zip(anchors, rtts)}
            position, _height = self._system.place_external(measured)
            return position
        # Spring relaxation needs stored coordinates; drop anchors whose
        # coordinates were purged by a mid-flight departure.
        keep = np.array(
            [int(a) in self._positions for a in anchors], dtype=bool
        )
        if not keep.any():
            return self._positions[int(self.members[0])].copy()
        if not keep.all():
            anchors, rtts = anchors[keep], rtts[keep]
        return self._spring_fit(anchors, rtts, rng)

    def _place_member(self, node: int, rng: np.random.Generator) -> np.ndarray:
        assert self._anchor_pool is not None
        anchors = rng.choice(
            self._anchor_pool,
            size=min(self._placement_probes, self._anchor_pool.size),
            replace=False,
        )
        rtts = self.offline_probe_block(anchors, [node])[:, 0]
        return self._spring_fit(anchors, rtts, rng)

    def _spring_fit(
        self,
        anchors: np.ndarray,
        rtts: np.ndarray,
        rng: np.random.Generator,
        iterations: int = 64,
    ) -> np.ndarray:
        """Spring-relax a position against fixed anchor coordinates."""
        anchor_positions = np.stack([self._positions[int(a)] for a in anchors])
        position = anchor_positions.mean(axis=0) + rng.normal(
            0.0, 0.01, size=anchor_positions.shape[1]
        )
        rtts = rtts.tolist()  # the same values, read as Python floats
        for _ in range(iterations):
            i = int(rng.integers(anchors.size))
            if rtts[i] <= 0:
                continue
            delta = position - anchor_positions[i]
            euclid = math.sqrt(delta.dot(delta))  # == np.linalg.norm
            direction = (
                delta / euclid
                if euclid > 1e-9
                else _random_unit(rng, position.size)
            )
            position = position + 0.25 * (rtts[i] - euclid) * direction
        return position

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        super()._leave(left, kept_mask, rng)
        assert self._anchor_pool is not None
        self._anchor_pool = self._anchor_pool[~np.isin(self._anchor_pool, left)]
        if self._anchor_pool.size == 0:
            # Every build-time member departed: fall back to placing
            # against any current member's stored coordinate.
            self._anchor_pool = self.members.copy()
            self._system = None
