"""The benchmark's three workloads, all on the ``daemon`` protocol.

Each workload is one world plus one :class:`~repro.harness.Scenario` whose
schemes run through :meth:`~repro.harness.QueryEngine.compare` on that
shared world.  The daemon load is open loop in simulated time: arrivals
are events on the simulated clock and never wait for completions, and
time-to-answer runs from each query's scheduled arrival, so queue wait
counts and generator lateness is zero by construction.

Each workload's world is fixed: it is built from the workload's base
seed, like a benchmark's data set.  ``--seed`` selects the traffic on it:
the targets, the arrival and membership streams and the schemes' own
draws of pass ``i`` all derive from ``base_seed + seed * passes + i``, so
one seed replays one run exactly, and different seeds vary the load but
not the network.

Why each workload was chosen, and which layers it loads, is its ``why``
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro import algorithms
from repro.algorithms.base import NearestPeerAlgorithm
from repro.harness import SamplingSpec, Scenario, get_scenario
from repro.latency.builder import (
    ClusteredWorld,
    build_clustered_oracle,
    build_sparse_clustered_world,
)
from repro.topology.clustered import ClusteredConfig


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme class with its constructor arguments."""

    cls: str
    kwargs: tuple[tuple[str, object], ...] = ()

    def make(self) -> NearestPeerAlgorithm:
        return getattr(algorithms, self.cls)(**dict(self.kwargs))


@dataclass(frozen=True)
class Workload:
    """One world, one scenario and its schemes.

    A run is ``passes`` full passes, each on its own traffic seed with
    ``scenario.n_queries`` queries per scheme.  Several short passes
    instead of one long one keep a run's cost from hanging on one
    membership random walk: a seed whose membership drifts up makes every
    rebuild of that pass dearer.
    """

    name: str
    sparse: bool
    scenario: Scenario
    schemes: tuple[SchemeSpec, ...]
    passes: int = 1

    def seeded(self, seed: int) -> Scenario:
        return self.scenario.with_(seed=self.scenario.seed + int(seed))

    def build_world(self) -> ClusteredWorld:
        build = build_sparse_clustered_world if self.sparse else build_clustered_oracle
        s = self.scenario
        return build(s.topology, seed=s.seed, core_pool_size=s.core_pool_size)

    @property
    def spec_digest(self) -> str:
        """Digest of world config, DaemonSpec, sampling, size and schemes."""
        s = self.scenario
        text = repr(
            (self.sparse, s.topology, s.daemon, s.sampling, s.n_queries,
             s.seed, s.core_pool_size, self.schemes, self.passes)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def tiny(self) -> "Workload":
        """A seconds-long variant on the same code path (for the tests)."""
        return replace(
            self,
            name=f"{self.name}-tiny",
            passes=2,
            scenario=self.scenario.with_(
                topology=ClusteredConfig(n_clusters=4, end_networks_per_cluster=10),
                sampling=SamplingSpec(n_targets=8),
                n_queries=12,
                core_pool_size=60,
            ),
        )


def _all_schemes(karger_tapestry_discipline: str) -> tuple[SchemeSpec, ...]:
    deferred = (("maintenance", karger_tapestry_discipline),)
    return (
        SchemeSpec("MeridianSearch"),
        SchemeSpec("KargerRuhlSearch", deferred),
        SchemeSpec("TapestrySearch", deferred),
        SchemeSpec("PicSearch"),
        SchemeSpec("VivaldiGreedySearch"),
        SchemeSpec("TiersSearch"),
        SchemeSpec("BeaconSearch"),
        SchemeSpec("RandomProbeSearch", (("budget", 32),)),
    )


_STEADY = get_scenario("daemon-steady")
_LOSSY = get_scenario("daemon-lossy")

MIX_2K = Workload(
    name="mix-2k",
    sparse=False,
    scenario=_STEADY.with_(
        topology=ClusteredConfig(n_clusters=10, end_networks_per_cluster=100),
        n_queries=400,
        seed=91,
    ),
    schemes=_all_schemes("lazy-partial"),
    passes=2,
)

CHURN_400 = Workload(
    name="churn-400",
    sparse=False,
    scenario=_STEADY.with_(
        topology=ClusteredConfig(n_clusters=8, end_networks_per_cluster=25),
        daemon=replace(
            _STEADY.daemon,
            mean_event_interval_ms=5.0,
            arrival_rate=0.7,
            departure_rate=0.7,
            ring_repair_period_ms=None,
        ),
        n_queries=25,
        seed=81,
    ),
    schemes=_all_schemes("lazy"),
    passes=5,
)

LOSSY_SPARSE_100K = Workload(
    name="lossy-sparse-100k",
    sparse=True,
    scenario=_LOSSY.with_(
        topology=ClusteredConfig(n_clusters=50, end_networks_per_cluster=1000),
        n_queries=20_000,
        seed=93,
    ),
    schemes=(SchemeSpec("RandomProbeSearch", (("budget", 32),)),),
)

WORKLOADS = {w.name: w for w in (MIX_2K, CHURN_400, LOSSY_SPARSE_100K)}
