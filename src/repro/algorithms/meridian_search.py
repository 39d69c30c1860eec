"""Meridian behind the common search interface."""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm, SearchResult
from repro.meridian.gossip import repair_overlay_rings
from repro.meridian.overlay import (
    MeridianConfig,
    MeridianNode,
    MeridianOverlay,
    insert_with_cap,
    populate_node_rings,
)
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


class MeridianSearch(NearestPeerAlgorithm):
    """Adapter: build a Meridian overlay, answer queries with it.

    Maintenance policy: ``incremental``, via ring insert/evict.  A join
    populates the arrival's rings from a bounded knowledge sample (one
    counted probe per acquaintance plus the pairwise diversity-selection
    blocks for over-full rings) and advertises the arrival to ``ring_size``
    existing nodes, each of which probes it once and files it with random
    eviction on ring overflow — Meridian's incremental gossip behaviour.
    A leave removes the node and evicts its id from every survivor's rings
    for free, then (with ``ring_repair`` on, the default) runs the gossip
    ring-repair pass: nodes whose rings underflowed pull candidate samples
    from ring neighbours and re-fatten their rings with counted
    maintenance probes (see
    :func:`repro.meridian.gossip.repair_overlay_rings`), instead of
    waiting for fresh arrivals to do it.
    """

    name = "meridian"
    maintenance_policy = "incremental"

    def __init__(
        self,
        config: MeridianConfig | None = None,
        maintenance=None,
        ring_repair: bool = True,
        repair_exchange_size: int = 16,
    ) -> None:
        super().__init__(maintenance=maintenance)
        self._config = config or MeridianConfig()
        self._ring_repair = ring_repair
        self._repair_exchange_size = repair_exchange_size
        self._overlay: MeridianOverlay | None = None

    def _build(self, rng: np.random.Generator) -> None:
        # Measure through the counted index channel so a build re-run
        # inside a flush bills its measurements as maintenance.
        self._overlay = MeridianOverlay.build(
            self.offline_probe_block, self.members, config=self._config, seed=rng
        )

    # -- incremental maintenance ---------------------------------------------

    def _join(self, joined: np.ndarray, rng: np.random.Generator) -> None:
        assert self._overlay is not None
        config = self._overlay.config
        members = self.members
        for node_id in joined:
            node_id = int(node_id)
            node = MeridianNode(node_id, config)
            others = members[members != node_id]
            knowledge = config.knowledge_size(members.size)
            if knowledge is not None and knowledge < others.size:
                others = rng.choice(others, size=knowledge, replace=False)
            # Same bucketing/selection as the converged build, with every
            # measurement billed as maintenance.
            populate_node_rings(
                node,
                others,
                self.offline_probe_block([node_id], others)[0],
                rng,
                self.offline_probe_block,
            )
            # Advertise the arrival to a bounded set of existing nodes
            # (drawn before admission, so every host has a node object).
            pool = self._overlay.member_ids
            hosts = rng.choice(
                pool, size=min(config.ring_size, pool.size), replace=False
            )
            self._overlay.add_node(node)
            host_lat = self.offline_probe_block(hosts, [node_id])[:, 0]
            for host, lat in zip(hosts, host_lat):
                insert_with_cap(
                    self._overlay.node(int(host)), node_id, float(lat), rng
                )

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        assert self._overlay is not None
        for node_id in left:
            self._overlay.remove_node(int(node_id))
        self._overlay.evict_everywhere(left)
        if self._ring_repair:
            repair_overlay_rings(
                self._overlay,
                self.offline_probe_block,
                rng,
                exchange_size=self._repair_exchange_size,
            )

    def repair_rings(
        self, seed: int | np.random.Generator | None = None
    ) -> tuple[int, int]:
        """One gossip ring-repair pass over the live overlay, counted.

        The entry point the simulated-time daemon re-drives continuously
        (see :class:`repro.meridian.gossip.PeriodicRepair`): every repair
        measurement is billed as maintenance, exactly as the leave-time
        pass bills.  Returns ``(nodes_repaired, probes_spent)``.
        """
        if self._overlay is None:
            raise ConfigurationError(f"{self.name}: repair_rings() before build()")
        repaired = 0

        def repair() -> None:
            nonlocal repaired
            repaired = repair_overlay_rings(
                self._overlay,
                self.offline_probe_block,
                make_rng(seed),
                exchange_size=self._repair_exchange_size,
            )

        # Continuous upkeep has no membership-event cause: the ledger
        # books it as background so per-event bills stay exact.
        spent = self._maintain([], repair)
        return repaired, spent

    def _plan(self, target: int, rng: np.random.Generator):
        """Native stepwise plan: one round per ring-descent hop.

        Meridian's closest-node descent: a uniformly random start member
        (one rng draw) probes the target, then each hop sweeps the ring
        members within ``(1 ± beta) * d`` of the current node in one
        batched counted round and forwards only on a ``beta``-fraction
        improvement.  A ``yield`` between hops lets a latency-faithful
        driver hold each hop until its slowest candidate probe completes.
        """
        assert self._overlay is not None
        overlay = self._overlay
        beta = overlay.config.beta
        current = int(rng.choice(overlay.member_ids))
        current_d = self.probe(current, target)
        kept, _, _ = yield from self._offer_round(
            [current], target, [current_d]
        )
        if not kept:  # the entry probe was lost: no ring to descend
            return self.no_answer(target)
        best, best_d = current, current_d
        measured: dict[int, float] = {current: current_d}
        path = [current]
        for _hop in range(overlay.config.max_hops):
            node = overlay.nodes.get(current)
            if node is None:  # departed mid-flight under daemon churn
                break
            low = (1.0 - beta) * current_d
            high = (1.0 + beta) * current_d
            candidates = node.members_within(low, high)
            fresh = list(
                dict.fromkeys(
                    m for m in candidates if m != target and m not in measured
                )
            )
            if fresh:
                values = self.probe_block(fresh, [target])[:, 0]
                fresh, values, _ = yield from self._offer_round(
                    fresh, target, values
                )
                measured.update(zip(fresh, values.tolist()))
            if measured:
                round_best = min(measured, key=measured.get)
                if measured[round_best] < best_d:
                    best, best_d = round_best, measured[round_best]
            # Forward only on a beta-fraction improvement; otherwise finish.
            if best_d <= beta * current_d and best != current:
                current, current_d = best, best_d
                path.append(current)
                continue
            break
        return SearchResult(
            target=target,
            found=best,
            found_latency_ms=best_d,
            probes=0,  # replaced by the base class from the counter
            hops=len(path) - 1,
            path=path,
        )

