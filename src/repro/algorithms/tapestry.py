"""Tapestry-style identifier-based sampling with proximity neighbour selection.

Each member gets a random hex identifier.  Level ``l`` of a node's routing
table holds, for each hex digit, the latency-closest members whose ids share
an ``l``-digit prefix with the node — built top-down as in Hildrum et al.'s
construction, assuming a growth-restricted metric.  The nearest-neighbour
search walks down the levels, at each level probing the current candidate
set and keeping the closest; in a growth-restricted space the candidate at
the last level is the true nearest neighbour.

Under the clustering condition the level structure is uninformative: the
cluster's peers are spread uniformly over identifier space, so the search's
per-level candidate sets are effectively random cluster samples — the paper:
"the only way the new peer would select the correct peer is by first picking
as its neighbor a peer that has the desired peer as a neighbor in the
appropriate level, and the likelihood of this latter event ... is small".
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import RegionIndexedSearch
from repro.util.validate import require_positive

_HEX_DIGITS = 16


class TapestrySearch(RegionIndexedSearch):
    """Prefix-routing nearest-neighbour search.

    Maintenance policy: ``rebuild``.  Hildrum-style routing tables are
    built top-down from global prefix groups; an arrival can enter (and a
    departure can vacate) any entry of any level of any node's table, so
    membership events re-run the full construction with every measurement
    billed as maintenance (``|M|²`` probes per event).  Real Tapestry
    deployments amortise this with background repair; the counted rebuild
    keeps the cost explicit instead of hiding it, and a deferred
    discipline (``maintenance="coalesce:8"`` or ``"lazy"``) models the
    amortisation — one counted rebuild per buffered event batch.

    Identifiers are *stable*: each member's hex id is drawn from its own
    keyed rng stream (seeded off the region base), like the static node
    hashes of a real Tapestry — rejoining peers keep their id.  Table
    construction itself is deterministic given ids and distances, so one
    node's routing table (its region, see :class:`RegionIndexedSearch`)
    can be rebuilt on demand against the current membership at region
    cost ``|M|``.  Under ``lazy-partial`` a query refreshes only the
    prefix neighborhoods on its walked path and returns exactly the
    answers a full ``lazy`` flush would.
    """

    name = "tapestry"

    def __init__(
        self,
        id_digits: int = 8,
        neighbors_per_entry: int = 3,
        probe_budget_per_level: int = 16,
        maintenance=None,
    ) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(id_digits, "id_digits")
        require_positive(neighbors_per_entry, "neighbors_per_entry")
        self._id_digits = id_digits
        self._neighbors_per_entry = neighbors_per_entry
        self._probe_budget_per_level = probe_budget_per_level
        # Ids drawn so far, and the id matrix cached per member-array
        # identity; both are drawn off the region base.
        self._ids: dict[int, tuple[int, ...]] = {}
        self._id_matrix: np.ndarray | None = None
        self._id_matrix_for: np.ndarray | None = None

    def build(self, *args, **kwargs) -> None:
        # A fresh build draws a fresh region base, hence fresh ids.
        self._ids = {}
        self._id_matrix_for = None
        super().build(*args, **kwargs)

    def _id_of(self, m: int) -> tuple[int, ...]:
        """The member's stable hex id, drawn lazily from its keyed stream."""
        cached = self._ids.get(m)
        if cached is None:
            id_rng = np.random.default_rng((self._region_base, 1, m))
            cached = tuple(
                int(d) for d in id_rng.integers(0, _HEX_DIGITS, size=self._id_digits)
            )
            self._ids[m] = cached
        return cached

    def _ids_matrix(self, members: np.ndarray) -> np.ndarray:
        """Id digits as an ``(n_members, id_digits)`` array, identity-cached."""
        if self._id_matrix_for is not members:
            self._id_matrix = np.array(
                [self._id_of(int(m)) for m in members], dtype=np.int8
            )
            self._id_matrix_for = members
        return self._id_matrix

    def _build_region(self, node: int) -> list[np.ndarray]:
        """One node's routing table against the current membership: per
        level, the neighbour ids of every digit entry, merged in digit order.

        Proximity neighbour selection as array operations: the other
        members sorted once by distance (stable: ties by member position),
        then per level those sharing the prefix, stable-sorted by their
        next digit, keeping the first ``neighbors_per_entry`` of each run.
        """
        members = self.members
        ids = self._ids_matrix(members)
        node_id = np.asarray(self._id_of(node), dtype=np.int8)
        distances = self._region_distances(node)
        # Length of the common prefix with the node, for every member at
        # once: digit-wise equality, zeroed from the first mismatch on.
        shared = np.cumprod(ids == node_id, axis=1).sum(axis=1)
        by_distance = np.argsort(distances, kind="stable")
        eligible = by_distance[members[by_distance] != node]
        levels: list[np.ndarray] = []
        for level in range(self._id_digits):
            eligible = eligible[shared[eligible] >= level]
            digits = ids[eligible, level]
            by_digit = np.argsort(digits, kind="stable")
            digits = digits[by_digit]
            # Rank inside each digit run: position minus the run's start.
            rank = np.arange(digits.size) - np.searchsorted(digits, digits)
            chosen = members[eligible[by_digit][rank < self._neighbors_per_entry]]
            levels.append(chosen)
            if not chosen.size:
                break
        return levels

    def _plan(self, target: int, rng: np.random.Generator):
        """Stepwise search: one round per routing level (native plan)."""
        current = int(rng.choice(self.members))
        first = self.probe(current, target)
        kept, vals, _ = yield from self._offer_round([current], target, [first])
        if not kept:  # the seed probe was lost: nothing to route from
            return self.no_answer(target)
        measured = dict(zip(kept, vals.tolist()))
        path = [current]
        for level in range(self._id_digits):
            # Region-aware freshness: refresh the routing table this level
            # reads (a no-op outside lazy-partial / when already fresh).
            self.touch_region(current)
            table = self._index.get(current)
            if table is None:  # departed mid-flight under daemon churn
                break
            if level >= len(table) or table[level].size == 0:
                break
            candidates = table[level]
            if candidates.size > self._probe_budget_per_level:
                candidates = rng.choice(
                    candidates, size=self._probe_budget_per_level, replace=False
                )
            fresh = [
                m
                for m in (int(c) for c in candidates)
                if m not in measured and m != target
            ]
            values = self.probe_many(fresh, target)
            if fresh:
                fresh, values, _ = yield from self._offer_round(
                    fresh, target, values
                )
            measured.update(zip(fresh, values.tolist()))
            best = min(measured, key=measured.get)
            if best != current:
                current = best
                path.append(current)
        return self.result(target, measured, hops=len(path) - 1, path=path)

