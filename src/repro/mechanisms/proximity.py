"""Composite proximity addresses: coordinates extended with UCL hints.

The paper: "the UCL (or the IP prefix) is added as an extension of the
otherwise latency-based proximity address.  When comparing two such
composite addresses, if the UCL indicates that the nodes share an upstream
router, then the nodes are considered to be close together and the
proximity address may be ignored.  If the two nodes do not share an
upstream router, then the UCL is ignored."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mechanisms.ucl import UclEntry
from repro.util.errors import DataError


@dataclass(frozen=True)
class ProximityAddress:
    """A node's composite address: coordinate + UCL (+ optional prefix)."""

    node_id: int
    coordinate: np.ndarray
    ucl: tuple[UclEntry, ...] = field(default_factory=tuple)
    ip_prefix: int | None = None
    prefix_length: int = 24

    def shared_router_estimate(self, other: "ProximityAddress") -> float | None:
        """Latency estimate through the closest shared upstream router.

        ``None`` when no router is shared.  The estimate is the sum of the
        two latencies to the shared router, minimised over shared routers —
        the rough-but-probe-free estimate Section 5 describes.
        """
        mine = {entry.router_id: entry.latency_ms for entry in self.ucl}
        best: float | None = None
        for entry in other.ucl:
            my_latency = mine.get(entry.router_id)
            if my_latency is None:
                continue
            estimate = my_latency + entry.latency_ms
            if best is None or estimate < best:
                best = estimate
        return best


def proximity_compare(a: ProximityAddress, b: ProximityAddress) -> float:
    """Estimated RTT between two composite addresses.

    Shared-UCL estimate wins when available (the coordinate is ignored);
    otherwise falls back to coordinate distance.
    """
    if a.coordinate.shape != b.coordinate.shape:
        raise DataError("coordinate dimensionalities differ")
    shared = a.shared_router_estimate(b)
    if shared is not None:
        return shared
    return float(np.linalg.norm(a.coordinate - b.coordinate))
