"""The paper's primary contribution, packaged for reuse.

* :mod:`repro.core.clustering` — detect the **clustering condition** in a
  latency dataset: clusters of many end-networks, mutually reachable only
  through a hub, all at "about the same" hub latency (Section 2.1's three
  requirements).
* :mod:`repro.core.assumptions` — quantify the geometric assumptions
  latency-only algorithms rely on (growth constraint, doubling constant,
  intrinsic dimensionality) and how the condition violates them
  (Section 2.2).
* :mod:`repro.core.lowerbound` — the analytic cost model: once a query
  enters a cluster, discovery degenerates to brute force, so expected
  probes scale with the number of end-networks (Section 2's bound).
* :mod:`repro.core.opportunity` — the opportunity cost of missing the
  same-network peer (the order-of-magnitude latency/bandwidth gap of the
  introduction).
* :mod:`repro.core.finder` — :class:`NearestPeerFinder`, the
  batteries-included API: mechanism cascade (multicast → registry → UCL →
  prefix) with a latency-only fallback, i.e. the system the paper's
  Section 5 recommends deploying.
"""

from repro.core.assumptions import (
    doubling_constant,
    growth_ratios,
    intrinsic_dimension,
)
from repro.core.clustering import ClusterReport, ClusteringConditionConfig, detect_clusters
from repro.core.finder import NearestPeerFinder
from repro.core.lowerbound import (
    expected_probes_with_replacement,
    expected_probes_without_replacement,
    phase_transition_probes,
)
from repro.core.opportunity import OpportunityCost, opportunity_cost

__all__ = [
    "detect_clusters",
    "ClusterReport",
    "ClusteringConditionConfig",
    "growth_ratios",
    "doubling_constant",
    "intrinsic_dimension",
    "expected_probes_with_replacement",
    "expected_probes_without_replacement",
    "phase_transition_probes",
    "NearestPeerFinder",
    "OpportunityCost",
    "opportunity_cost",
]
