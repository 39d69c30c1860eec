"""Brute-force random probing: the baseline every scheme must beat.

Probes ``budget`` uniformly random members and returns the closest.  Under
the clustering condition the *informed* algorithms converge to exactly this
behaviour once the query enters the cluster — which is the paper's thesis —
so this baseline calibrates how much (or little) their intelligence buys.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.util.validate import require_positive


class RandomProbeSearch(NearestPeerAlgorithm):
    """Uniform random probing with a fixed budget.

    Maintenance policy: ``incremental`` at zero cost — there is no index,
    so :meth:`join` / :meth:`leave` only update the member set (0
    maintenance probes per event).  The stepwise plan is a single round:
    the whole budget fans out in parallel.
    """

    name = "random-probe"
    maintenance_policy = "incremental"

    def __init__(self, budget: int = 32, maintenance=None) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(budget, "budget")
        self._budget = budget

    def _build(self, rng: np.random.Generator) -> None:
        pass  # nothing to index

    def _join(self, joined: np.ndarray, rng: np.random.Generator) -> None:
        pass  # nothing to maintain: queries read ``self.members`` directly

    def _leave(
        self, left: np.ndarray, kept_mask: np.ndarray, rng: np.random.Generator
    ) -> None:
        pass  # nothing to maintain

    def _plan(self, target: int, rng: np.random.Generator):
        members = self.members
        if self.view_contains(target) is not False:
            # The target is a member, or the view is a stale snapshot the
            # liveness mask cannot answer for: filter with the O(n) scan.
            # When the mask proves the target absent the filter would be
            # the identity, so skipping it draws bit-identical picks while
            # keeping each query O(budget) — the 1M-peer fast path.
            members = members[members != target]
        count = min(self._budget, members.size)
        picks = rng.choice(members, size=count, replace=False)
        values = self.probe_many(picks, target)
        picks, values, _ = yield from self._offer_round(picks, target, values)
        measured = dict(zip(picks, values.tolist()))
        if not measured:  # every probe lost under an active fault model
            return self.no_answer(target)
        return self.result(target, measured, hops=0)

