"""Nearest-peer search algorithms behind one interface.

Every scheme the paper analyses (Section 2.3 and Related Work) is
implemented here against the same :class:`NearestPeerAlgorithm` API so the
benchmarks can run them head-to-head on identical clustered worlds:

========================  ==================================================
``MeridianSearch``        distance-based sampling with rings (Section 2.3)
``KargerRuhlSearch``      growth-restricted metric sampling (Karger-Ruhl)
``TapestrySearch``        identifier-prefix levels with PNS (Tapestry)
``PicSearch``             coordinates + greedy walks (PIC / Mithos style)
``VivaldiGreedySearch``   Vivaldi coordinates + greedy walks
``TiersSearch``           hierarchical clustering descent (Tiers)
``BeaconSearch``          beacon triangulation (Beaconing / Hotz metric)
``RandomProbeSearch``     brute-force random probing (the lower bound)
========================  ==================================================

All of them consume latency probes only — which is precisely why all of
them degrade under the clustering condition (the library's mechanisms
package holds the fixes that use extra information).
"""

from repro.algorithms.base import (
    MaintenanceScheduler,
    NearestPeerAlgorithm,
    ProbeRound,
    SearchResult,
    probe_round,
)
from repro.algorithms.beaconing import BeaconSearch
from repro.algorithms.karger_ruhl import KargerRuhlSearch
from repro.algorithms.meridian_search import MeridianSearch
from repro.algorithms.pic import PicSearch, VivaldiGreedySearch
from repro.algorithms.random_probe import RandomProbeSearch
from repro.algorithms.tapestry import TapestrySearch
from repro.algorithms.tiers import TiersSearch

__all__ = [
    "MaintenanceScheduler",
    "NearestPeerAlgorithm",
    "ProbeRound",
    "SearchResult",
    "probe_round",
    "MeridianSearch",
    "KargerRuhlSearch",
    "TapestrySearch",
    "PicSearch",
    "VivaldiGreedySearch",
    "TiersSearch",
    "BeaconSearch",
    "RandomProbeSearch",
]
