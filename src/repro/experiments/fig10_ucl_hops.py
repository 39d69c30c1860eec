"""Figure 10: inter-peer router hop-length vs inter-peer latency (UCL).

Paper: binned percentiles over peer pairs closer than 10 ms; "the bin at
3.9 ms has a median hop-length of 4", i.e. tracking 2 upstream routers
already finds those peers; "to discover peers closer than 5 ms, peers need
to track 3 upstream routers each for a 50% success rate and about 6
routers each for a 75% success rate".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.binning import BinnedPercentiles, binned_percentiles
from repro.analysis.compare import Comparison, ShapeCheck
from repro.analysis.tables import format_table
from repro.harness.workloads import azureus_internet
from repro.experiments.config import CLOSE_PEER_THRESHOLD_MS, ExperimentScale
from repro.mechanisms.ucl import hop_length_vs_latency


@dataclass(frozen=True)
class Fig10Result:
    """Binned hop-length percentiles by latency."""

    bins: BinnedPercentiles
    n_pairs: int

    def render(self) -> str:
        rows = [
            [r["x"], r["count"], r["p5"], r["p25"], r["p50"], r["p75"], r["p95"]]
            for r in self.bins.rows()
        ]
        return (
            "Fig 10: inter-peer hop-length vs latency "
            f"({self.n_pairs} close pairs)\n"
            + format_table(
                ["latency_ms", "pairs", "p5", "p25", "median", "p75", "p95"], rows
            )
        )

    def routers_to_track(self, latency_ms: float, percentile: int = 50) -> float:
        """Routers each peer must track to find peers at ``latency_ms``.

        Half the hop-length at the bin covering the latency.
        """
        idx = int(np.argmin(np.abs(self.bins.centers - latency_ms)))
        return float(self.bins.percentiles[percentile][idx]) / 2.0

    def comparisons(self) -> list[Comparison]:
        return [
            Comparison(
                "Fig 10",
                "routers to track for 50% of peers < 5 ms",
                "~3",
                f"{self.routers_to_track(4.0, 50):.1f}",
                "",
            ),
            Comparison(
                "Fig 10",
                "routers to track for 75% of peers < 5 ms",
                "~6",
                f"{self.routers_to_track(4.0, 75):.1f}",
                "",
            ),
        ]

    def shape_checks(self) -> list[ShapeCheck]:
        medians = self.bins.medians
        return [
            ShapeCheck(
                "Fig 10",
                "hop-length grows with inter-peer latency",
                lambda: medians[-1] > medians[0],
            ),
            ShapeCheck(
                "Fig 10",
                "very close peers need only a couple of tracked routers",
                lambda: self.routers_to_track(
                    float(self.bins.centers[0]), 50
                )
                <= 3.0,
            ),
        ]


def run(scale: ExperimentScale | None = None) -> Fig10Result:
    """Regenerate Figure 10."""
    scale = scale or ExperimentScale()
    internet = azureus_internet(scale.seed, scale.paper_scale)
    latency, hops = hop_length_vs_latency(
        internet,
        internet.responsive_peer_ids(),
        max_latency_ms=CLOSE_PEER_THRESHOLD_MS,
        seed=scale.seed,
    )
    edges = np.array([0.05, 0.3, 0.8, 1.6, 3.0, 5.0, 7.0, 10.0])
    bins = binned_percentiles(latency, hops, edges, min_count=10)
    return Fig10Result(bins=bins, n_pairs=int(latency.size))
