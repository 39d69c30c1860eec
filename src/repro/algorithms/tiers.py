"""Tiers-style hierarchical nearest-peer search (Banerjee et al., 2002).

A proximity hierarchy: level 0 holds all members grouped into latency-based
clusters; each cluster elects its representative into the level above; the
top level is a single cluster.  A query starts at the top, probes the
members of the current cluster, picks the closest, and descends into that
member's cluster one level down — "the nearest peer in the [lowest-level]
cluster is chosen as the nearest peer overall".

Clusters are formed by greedy leader election (farthest-point leaders,
members join the nearest leader), the standard Tiers construction.  Under
the clustering condition the descent "essentially reduces to random choices
at each step" because sibling representatives are equidistant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.util.validate import require_positive


@dataclass
class _Level:
    """One level of the hierarchy."""

    # cluster id -> member node ids at this level
    clusters: dict[int, np.ndarray] = field(default_factory=dict)
    # representative node id -> cluster id it represents (one level down)
    represents: dict[int, int] = field(default_factory=dict)


class TiersSearch(NearestPeerAlgorithm):
    """Hierarchical cluster descent.

    Maintenance policy: ``incremental``.  A join descends the hierarchy
    like a query — probing the current cluster's members at each level
    (``O(branching × depth)`` maintenance probes) — and files the arrival
    into the chosen level-0 cluster; a leave removes the node and, where
    it was a cluster representative, promotes a random cluster mate in its
    place (no probes).  Clusters drift from the greedy leader-election
    optimum under sustained churn; only a fresh :meth:`build` re-balances.
    """

    name = "tiers"
    maintenance_policy = "incremental"

    def __init__(
        self, branching: int = 12, max_levels: int = 12, maintenance=None
    ) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(branching, "branching")
        self._branching = branching
        self._max_levels = max_levels
        self._levels: list[_Level] = []

    def _cluster_nodes(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> dict[int, np.ndarray]:
        """Greedy leader election + nearest-leader assignment."""
        n_clusters = max(1, int(np.ceil(nodes.size / self._branching)))
        if n_clusters == 1:
            return {0: nodes}
        # Farthest-point leader selection over build-time distances.
        leaders = [int(rng.choice(nodes))]
        leader_distances = [
            self.offline_probe_block([leaders[0]], self.members)[0]
        ]
        node_index = {int(m): i for i, m in enumerate(self.members)}
        rows = np.array([node_index[int(n)] for n in nodes])
        while len(leaders) < n_clusters:
            min_dist = np.min(
                np.stack([d[rows] for d in leader_distances]), axis=0
            )
            next_leader = int(nodes[int(np.argmax(min_dist))])
            if next_leader in leaders:
                break
            leaders.append(next_leader)
            leader_distances.append(
                self.offline_probe_block([next_leader], self.members)[0]
            )
        assignment = np.argmin(
            np.stack([d[rows] for d in leader_distances]), axis=0
        )
        return {
            c: nodes[assignment == c]
            for c in range(len(leaders))
            if np.any(assignment == c)
        }

    def _build(self, rng: np.random.Generator) -> None:
        self._levels = []
        current_nodes = self.members.copy()
        for _ in range(self._max_levels):
            level = _Level(clusters=self._cluster_nodes(current_nodes, rng))
            representatives = []
            for cluster_id, nodes in level.clusters.items():
                representative = int(rng.choice(nodes))
                level.represents[representative] = cluster_id
                representatives.append(representative)
            self._levels.append(level)
            if len(level.clusters) == 1:
                break
            current_nodes = np.asarray(representatives, dtype=int)

    # -- incremental maintenance ---------------------------------------------

    @staticmethod
    def _cluster_containing(level: _Level, node: int) -> int | None:
        for cluster_id, nodes in level.clusters.items():
            if node in nodes:
                return cluster_id
        return None

    def _join(self, joined: np.ndarray, rng: np.random.Generator) -> None:
        for node in joined:
            self._insert_node(int(node), rng)

    def _insert_node(self, node: int, rng: np.random.Generator) -> None:
        """Descend the hierarchy by measured latency; file into level 0."""
        level_index = len(self._levels) - 1
        cluster_id = next(iter(self._levels[level_index].clusters))
        while level_index > 0:
            members = self._levels[level_index].clusters[cluster_id]
            distances = self.offline_probe_block([node], members)[0]
            best = int(members[int(np.argmin(distances))])
            below = self._levels[level_index - 1].represents.get(best)
            if below is None:  # stale representative: fall back to any cluster
                below = next(iter(self._levels[level_index - 1].clusters))
            cluster_id = below
            level_index -= 1
        level0 = self._levels[0]
        level0.clusters[cluster_id] = np.append(level0.clusters[cluster_id], node)

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        for node in left:
            self._remove_from_level(0, int(node), rng)

    def _remove_from_level(
        self, index: int, node: int, rng: np.random.Generator
    ) -> None:
        """Remove ``node`` from level ``index``, repairing representatives.

        If the node represented its cluster, a random cluster mate is
        promoted in its place (and substituted for it up the hierarchy);
        if the cluster empties, it is deleted and the removal cascades to
        the level above.
        """
        if index >= len(self._levels):
            return
        level = self._levels[index]
        cluster_id = self._cluster_containing(level, node)
        if cluster_id is None:
            return
        remaining = level.clusters[cluster_id]
        remaining = remaining[remaining != node]
        represented = level.represents.pop(node, None)
        if remaining.size == 0:
            del level.clusters[cluster_id]
            self._remove_from_level(index + 1, node, rng)
            return
        level.clusters[cluster_id] = remaining
        if represented is not None:
            promoted = int(rng.choice(remaining))
            level.represents[promoted] = represented
            self._substitute_upward(index + 1, node, promoted)

    def _substitute_upward(self, index: int, old: int, new: int) -> None:
        """Replace a promoted representative in every level above."""
        if index >= len(self._levels):
            return
        level = self._levels[index]
        cluster_id = self._cluster_containing(level, old)
        if cluster_id is not None:
            nodes = level.clusters[cluster_id].copy()
            nodes[nodes == old] = new
            level.clusters[cluster_id] = nodes
        represented = level.represents.pop(old, None)
        if represented is not None:
            level.represents[new] = represented
            self._substitute_upward(index + 1, old, new)

    def _plan(self, target: int, rng: np.random.Generator):
        """Stepwise search: one round per hierarchy level (native plan)."""
        measured: dict[int, float] = {}
        path: list[int] = []
        # Start at the single top-level cluster and descend.
        level_index = len(self._levels) - 1
        cluster_id = next(iter(self._levels[level_index].clusters))
        while level_index >= 0:
            level = self._levels[level_index]
            nodes = level.clusters.get(cluster_id)
            if nodes is None:  # cluster dissolved mid-flight under churn
                break
            fresh = [
                n
                for n in (int(node) for node in nodes)
                if n not in measured and n != target
            ]
            values = self.probe_many(fresh, target)
            if fresh:
                fresh, values, _ = yield from self._offer_round(
                    fresh, target, values
                )
            measured.update(zip(fresh, values.tolist()))
            in_cluster = {
                int(n): measured[int(n)] for n in nodes if int(n) in measured
            }
            if not in_cluster:
                break
            best = min(in_cluster, key=in_cluster.get)
            path.append(best)
            if level_index == 0:
                break
            # Descend into the cluster the chosen representative leads.
            cluster_id = self._levels[level_index - 1].represents.get(best)
            if cluster_id is None:
                break
            level_index -= 1
        if not measured:  # every probe of the descent was lost
            return self.no_answer(target)
        return self.result(target, measured, hops=len(path), path=path)

