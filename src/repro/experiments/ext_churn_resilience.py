"""Extension: nearest-peer search under membership churn.

The paper evaluates every scheme over a frozen member set, but real p2p
populations never hold still — churn is the defining operational condition
(Aspnes et al.; the Amad et al. survey).  With the membership lifecycle
API (``join``/``leave`` on every :class:`NearestPeerAlgorithm`) and the
harness's churn workloads (zero-delay daemon runs), this experiment asks
the question the paper could not: *how much accuracy does each scheme
keep, and what maintenance bill does it pay, when the membership it
indexed keeps changing?*

Every scheme faces the identical world, event stream and query stream
(common random numbers via :meth:`QueryEngine.compare`), is scored against
the membership alive at each query, and reports its per-query maintenance
probes next to its query probes — the same honesty for maintenance cost
that the paper demands for search cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms import BeaconSearch, MeridianSearch, RandomProbeSearch
from repro.analysis.compare import Comparison, ShapeCheck
from repro.analysis.tables import format_table
from repro.experiments.config import ExperimentScale
from repro.harness import (
    DaemonTrialRecord,
    QueryEngine,
    SamplingSpec,
    Scenario,
    churn_spec,
)
from repro.harness.scenario import CHURN_STEP_MS
from repro.topology.clustered import ClusteredConfig

#: The schemes under churn: the zero-maintenance baseline, a cheap
#: incremental index, and the structural incremental overlay.
SCHEMES = (
    ("random-probe", lambda: RandomProbeSearch(budget=32)),
    ("beaconing", BeaconSearch),
    ("meridian", MeridianSearch),
)


@dataclass(frozen=True)
class ChurnResilienceResult:
    """Per-scheme accuracy and maintenance cost under steady churn."""

    n_hosts: int
    records: list  # DaemonTrialRecord per scheme, compare() order

    def render(self) -> str:
        rows = [
            [
                record.scheme,
                f"{record.exact_rate:.2f}",
                f"{record.cluster_rate:.2f}",
                f"{record.mean_probes_per_query:.1f}",
                f"{record.mean_maintenance_probes_per_query:.1f}",
                f"{record.mean_membership_size:.0f}",
            ]
            for record in self.records
        ]
        return (
            f"Extension: churn resilience ({self.n_hosts} hosts, "
            "steady-state churn)\n"
            + format_table(
                [
                    "scheme",
                    "P(exact)",
                    "P(cluster)",
                    "probes/q",
                    "maint/q",
                    "members~",
                ],
                rows,
            )
        )

    def comparisons(self) -> list[Comparison]:
        meridian = self._record("meridian")
        return [
            Comparison(
                "Ext (churn)",
                "Meridian accuracy under steady membership churn",
                "not measured (the paper's populations are frozen)",
                f"P(cluster) {meridian.cluster_rate:.0%} at "
                f"{meridian.mean_maintenance_probes_per_query:.0f} "
                "maintenance probes/query",
                "simulation-only: churn leaves cluster discovery intact but "
                "maintenance dominates the probe bill",
            )
        ]

    def _record(self, scheme: str) -> DaemonTrialRecord:
        for record in self.records:
            if record.scheme == scheme:
                return record
        raise KeyError(scheme)

    def shape_checks(self) -> list[ShapeCheck]:
        return [
            ShapeCheck(
                "Ext (churn)",
                "the index-free baseline pays zero maintenance",
                lambda: self._record("random-probe").total_maintenance_probes
                == 0,
            ),
            ShapeCheck(
                "Ext (churn)",
                "index-carrying schemes bill maintenance per event",
                lambda: all(
                    self._record(s).total_maintenance_probes > 0
                    for s in ("beaconing", "meridian")
                ),
            ),
            ShapeCheck(
                "Ext (churn)",
                "Meridian still finds the right cluster under churn (>50%)",
                lambda: self._record("meridian").cluster_rate > 0.5,
            ),
        ]


def churn_scenario(scale: ExperimentScale) -> Scenario:
    """Steady-state churn sized to the experiment scale."""
    if scale.paper_scale:
        topology = ClusteredConfig(
            n_clusters=10, end_networks_per_cluster=100, delta=0.2
        )
        n_queries, n_targets, min_members = 300, 100, 200
    else:
        topology = ClusteredConfig(
            n_clusters=6, end_networks_per_cluster=20, delta=0.2
        )
        n_queries, n_targets, min_members = 120, 40, 32
    return Scenario(
        name="ext-churn-resilience",
        topology=topology,
        sampling=SamplingSpec(n_targets=n_targets),
        protocol="daemon",
        daemon=churn_spec(
            initial_fraction=0.7,
            arrival_rate=0.6,
            departure_rate=0.6,
            session_length_ms=80 * CHURN_STEP_MS,
            warmup_ms=20 * CHURN_STEP_MS,
            min_members=min_members,
        ),
        n_queries=n_queries,
        seed=scale.seed,
    )


def run(scale: ExperimentScale | None = None) -> ChurnResilienceResult:
    """Run every scheme on one world under one churn event stream."""
    scale = scale or ExperimentScale()
    scenario = churn_scenario(scale)
    records = QueryEngine().compare(
        scenario, [factory for _, factory in SCHEMES]
    )
    return ChurnResilienceResult(
        n_hosts=scenario.topology.n_peers,
        records=records,
    )
