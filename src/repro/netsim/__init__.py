"""A small discrete-event simulator: the query daemon's clock and wire.

:class:`EventLoop` is a binary-heap event queue with deterministic
tie-breaking (one list entry per event; cancelling marks the entry dead
in place); the query daemon (:mod:`repro.service.daemon`) schedules
query arrivals, probe-round completions, membership events and periodic
ring repair on it.  :class:`Network` prices a round's path RTTs and runs
its probes through the :class:`FaultModel` (loss, outages, NAT relays,
clock skew).
"""

from repro.netsim.engine import EventLoop
from repro.netsim.network import FaultModel, Network

__all__ = ["EventLoop", "FaultModel", "Network"]
