"""repro — reproduction of "On The Difficulty of Finding the Nearest Peer
in P2P Systems" (Vishnumurthy & Francis, IMC 2008).

The library implements the paper's full stack: a router-level synthetic
Internet with the last-hop structure that causes the **clustering
condition**, the Section 3 measurement pipelines (rockettrace, King,
TCP-ping), a faithful Meridian plus seven latency-only baselines, the
Section 5 mechanisms (UCL and IP-prefix key-value maps over a Chord DHT,
multicast, registries), and one driver per figure/table of the evaluation.

Quick start::

    from repro import SyntheticInternet, NearestPeerFinder

    internet = SyntheticInternet.generate(seed=7)
    finder = NearestPeerFinder(internet, seed=7)
    finder.join_all(internet.peer_ids[:300])
    result = finder.find(internet.peer_ids[300])
    print(result.stage, result.found, result.latency_ms)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
paper-vs-measured results.
"""

from repro.core.clustering import ClusterReport, detect_clusters
from repro.core.finder import NearestPeerFinder
from repro.core.opportunity import opportunity_cost
from repro.harness import (
    AggregateStats,
    DaemonSpec,
    FaultSpec,
    DaemonTrialRecord,
    NoiseSpec,
    QueryEngine,
    SamplingSpec,
    Scenario,
    ScenarioResult,
    TrialRecord,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.latency.builder import ClusteredWorld, build_clustered_oracle
from repro.latency.matrix import LatencyMatrix
from repro.meridian.overlay import MeridianConfig, MeridianOverlay
from repro.topology.clustered import ClusteredConfig, ClusteredTopology
from repro.topology.internet import InternetConfig, SyntheticInternet
from repro.topology.oracle import (
    CountingOracle,
    LatencyOracle,
    MatrixOracle,
    NoisyOracle,
)

__version__ = "1.0.0"

__all__ = [
    "SyntheticInternet",
    "InternetConfig",
    "ClusteredConfig",
    "ClusteredTopology",
    "ClusteredWorld",
    "build_clustered_oracle",
    "LatencyMatrix",
    "LatencyOracle",
    "MatrixOracle",
    "NoisyOracle",
    "CountingOracle",
    "MeridianConfig",
    "MeridianOverlay",
    "NearestPeerFinder",
    "detect_clusters",
    "ClusterReport",
    "opportunity_cost",
    "AggregateStats",
    "DaemonSpec",
    "FaultSpec",
    "DaemonTrialRecord",
    "NoiseSpec",
    "QueryEngine",
    "SamplingSpec",
    "Scenario",
    "ScenarioResult",
    "TrialRecord",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "__version__",
]
