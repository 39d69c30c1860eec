"""Beacon-based nearest-peer search (Kommareddy et al., ICNP 2001).

A fixed set of beacon servers tracks its latency to every member offline.
A query measures the target against every beacon; each beacon returns the
members whose recorded latency is within a tolerance band of the target's,
and the candidates are ranked by the Hotz metric (the triangulation lower
bound ``max_b |d(b, t) - d(b, m)|``) before a bounded probing pass.

Under the clustering condition "most peers in the same cluster but
different end-networks [have] almost identical latencies to all the beacon
servers ... all such peers are impossible to tell apart" — the candidate
sets blow up to the whole cluster and the probe budget decides.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.util.validate import require_positive


class BeaconSearch(NearestPeerAlgorithm):
    """Triangulation from a fixed beacon set.

    Maintenance policy: ``incremental``.  A join measures each beacon
    against every arrival (``n_beacons × |J|`` maintenance probes) and
    appends columns to the beacon-distance table; a leave drops the
    departed columns for free, and when a *beacon* departs a replacement
    is recruited and measures the whole membership (``|M|`` probes per
    recruit).
    """

    name = "beaconing"
    maintenance_policy = "incremental"

    def __init__(
        self,
        n_beacons: int = 10,
        band_fraction: float = 0.15,
        probe_budget: int = 16,
        maintenance=None,
    ) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(n_beacons, "n_beacons")
        self._n_beacons = n_beacons
        self._band_fraction = band_fraction
        self._probe_budget = probe_budget
        self._beacons: np.ndarray | None = None
        self._beacon_to_member: np.ndarray | None = None  # (B, N)

    def _build(self, rng: np.random.Generator) -> None:
        members = self.members
        count = min(self._n_beacons, members.size)
        self._beacons = rng.choice(members, size=count, replace=False)
        self._beacon_to_member = self.offline_probe_block(self._beacons, members)

    def _recruit_beacons(self, rng: np.random.Generator) -> None:
        """Top the beacon set back up to ``n_beacons`` (counted probes)."""
        assert self._beacons is not None and self._beacon_to_member is not None
        want = min(self._n_beacons, self.members.size)
        while self._beacons.size < want:
            pool = self.members[~np.isin(self.members, self._beacons)]
            if pool.size == 0:
                break
            recruit = int(rng.choice(pool))
            row = self.offline_probe_block([recruit], self.members)
            self._beacons = np.append(self._beacons, recruit)
            self._beacon_to_member = np.vstack([self._beacon_to_member, row])

    def _join(self, joined: np.ndarray, rng: np.random.Generator) -> None:
        assert self._beacons is not None and self._beacon_to_member is not None
        # New columns first (beacon -> arrival RTTs), then top up beacons if
        # the initial build was starved for members.
        block = self.offline_probe_block(self._beacons, joined)
        self._beacon_to_member = np.hstack([self._beacon_to_member, block])
        self._recruit_beacons(rng)

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        assert self._beacons is not None and self._beacon_to_member is not None
        beacon_kept = ~np.isin(self._beacons, left)
        self._beacons = self._beacons[beacon_kept]
        self._beacon_to_member = self._beacon_to_member[beacon_kept][:, kept_mask]
        self._recruit_beacons(rng)

    def _plan(self, target: int, rng: np.random.Generator):
        assert self._beacons is not None and self._beacon_to_member is not None
        members = self.members
        # Snapshot the beacon state alongside the member view: churn
        # applied between this plan's rounds *rebinds* the beacon set and
        # the distance table (its columns track the live membership), so
        # the Hotz ranking below must use the capture-time table — the one
        # whose columns align with ``members``.  Maintenance never mutates
        # the captured arrays in place.
        beacons = self._beacons
        table = self._beacon_to_member
        # Round 1: the target measures itself against every beacon.
        target_to_beacons = self.probe_many(beacons, target)
        _, heard, rows_alive = yield from self._offer_round(
            beacons, target, target_to_beacons
        )
        if rows_alive.size:
            # Triangulate from the beacons that actually answered: the
            # Hotz bound and the bands use only the surviving table rows,
            # so a lossy beacon round degrades the ranking instead of
            # poisoning it with unmeasured gaps.  With every probe
            # answered (any fault-free driver) this is the full table.
            gaps = np.abs(table[rows_alive] - heard[:, None])
            hotz = gaps.max(axis=0)
            bands = gaps <= self._band_fraction * np.maximum(
                heard[:, None], 1e-3
            )
            in_any_band = bands.any(axis=0)
            candidate_rows = np.flatnonzero(in_any_band)
            if candidate_rows.size == 0:
                candidate_rows = np.arange(members.size)
            ranked = candidate_rows[np.argsort(hotz[candidate_rows])]
        else:
            # Every beacon probe was lost: no triangulation signal at all.
            # Fall back to an unranked shortlist drawn from the snapshot.
            ranked = rng.permutation(members.size)
        shortlist = [
            m
            for m in (int(members[row]) for row in ranked[: self._probe_budget])
            if m != target
        ]
        measured: dict[int, float] = {}
        if shortlist:
            # Round 2: the shortlisted candidates probe the target.
            values = self.probe_many(shortlist, target)
            kept, values, _ = yield from self._offer_round(
                shortlist, target, values
            )
            measured = dict(zip(kept, values.tolist()))
        if not measured:  # degenerate: every candidate was the target
            fallback = int(rng.choice(members[members != target]))
            value = self.probe(fallback, target)
            kept, values, _ = yield from self._offer_round(
                [fallback], target, [value]
            )
            measured = dict(zip(kept, values.tolist()))
        if not measured:  # shortlist and fallback both fully lost
            return self.no_answer(target)
        return self.result(target, measured, hops=1)

