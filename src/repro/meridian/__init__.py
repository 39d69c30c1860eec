"""Meridian (Wong, Slivkins & Sirer, SIGCOMM 2005) reimplementation.

The paper uses "the Meridian simulator used in the Meridian paper" to show
the clustering condition defeats closest-node discovery; this package is a
faithful Python reimplementation of that algorithm:

* each node organises other nodes into **concentric rings** of exponentially
  growing radii;
* ring membership is capped (16 per ring in the paper's simulations) and
  chosen to maximise ring-member **hypervolume** so members are
  geometrically diverse;
* a **closest-node query** measures the current node's distance ``d`` to the
  target, asks ring members within ``(1 - beta) d .. (1 + beta) d`` to probe
  the target, and forwards the query to the best prober only if it improves
  on ``beta * d`` — the paper runs ``beta = 0.5``.  The query runs as
  :class:`repro.algorithms.meridian_search.MeridianSearch`.

Under the clustering condition the ring-member diversity machinery buys
nothing — "any set of randomly chosen peers from the cluster has about the
same hypervolume" — which is exactly the failure the simulations exhibit.
"""

from repro.meridian.overlay import MeridianConfig, MeridianNode, MeridianOverlay
from repro.meridian.rings import RingStructure
from repro.meridian.selection import select_hypervolume, select_maxmin

__all__ = [
    "MeridianConfig",
    "MeridianNode",
    "MeridianOverlay",
    "RingStructure",
    "select_maxmin",
    "select_hypervolume",
]
