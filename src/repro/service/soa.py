"""Struct-of-arrays storage for the daemon's hot per-node admission state.

The scalar daemon kept per-node admission state in dicts keyed by node id
— fine at n=2,000, ruinous at n=1,000,000 where every query pays hashing
and boxing on the hot path.  :class:`MemberStateArrays` flattens that
state into parallel numpy arrays over the oracle's id space: per-node
in-service and queued counters and their peaks, each updated in O(1) per
admission event.

The arrays are bookkeeping only — admission *decisions* read them, but
the values mirror what the historical dict bookkeeping would hold at
every instant (the SoA regression test reconstructs the dict from job
timelines and compares).  Liveness is not kept here: the algorithm's
member set and the daemon's membership log hold it.
"""

from __future__ import annotations

import numpy as np


class MemberStateArrays:
    """Flat per-node admission state over the oracle id space ``0..n_nodes-1``.

    ``active`` / ``queued`` count each entry node's in-service and
    FIFO-queued queries; the ``*_peak`` arrays record each node's
    high-water marks.
    """

    __slots__ = (
        "n_nodes",
        "active",
        "active_peak",
        "queued",
        "queued_peak",
    )

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = int(n_nodes)
        self.active = np.zeros(self.n_nodes, dtype=np.int32)
        self.active_peak = np.zeros(self.n_nodes, dtype=np.int32)
        self.queued = np.zeros(self.n_nodes, dtype=np.int32)
        self.queued_peak = np.zeros(self.n_nodes, dtype=np.int32)

    # -- admission ----------------------------------------------------------

    def admit(self, entry: int) -> None:
        """One query entered service at ``entry``."""
        count = self.active[entry] + 1
        self.active[entry] = count
        if count > self.active_peak[entry]:
            self.active_peak[entry] = count

    def release(self, entry: int) -> None:
        """One query at ``entry`` finished."""
        self.active[entry] -= 1

    def enqueue(self, entry: int) -> None:
        """One query joined ``entry``'s FIFO queue."""
        count = self.queued[entry] + 1
        self.queued[entry] = count
        if count > self.queued_peak[entry]:
            self.queued_peak[entry] = count

    def dequeue(self, entry: int) -> None:
        """One query left ``entry``'s FIFO queue for service."""
        self.queued[entry] -= 1
