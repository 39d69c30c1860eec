"""Figure 11: IP-prefix heuristic false-positive/false-negative rates.

Paper: rates computed per peer against a 10 ms threshold over ~2,400 peers
with at least one close peer; "the false-positive rate falls with ...
longer prefixes, whereas the false-negative rate increases ...
Unfortunately, there is no clear sweet-spot".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.compare import Comparison, ShapeCheck
from repro.analysis.plotting import ascii_series
from repro.analysis.tables import series_table
from repro.harness.workloads import azureus_internet
from repro.experiments.config import (
    CLOSE_PEER_THRESHOLD_MS,
    ExperimentScale,
    FIG11_PREFIX_LENGTHS,
)
from repro.mechanisms.ipprefix import (
    PrefixErrorRates,
    close_pairs_from_internet,
    prefix_error_rates,
)


@dataclass(frozen=True)
class Fig11Result:
    """Error rates per prefix length."""

    rates: list[PrefixErrorRates]

    def lengths(self) -> list[int]:
        return [r.prefix_length for r in self.rates]

    def false_positives(self) -> list[float]:
        return [r.median_false_positive_rate for r in self.rates]

    def false_negatives(self) -> list[float]:
        return [r.median_false_negative_rate for r in self.rates]

    def render(self) -> str:
        table = series_table(
            "prefix bits",
            self.lengths(),
            {
                "false-positive": [f"{v:.3f}" for v in self.false_positives()],
                "false-negative": [f"{v:.3f}" for v in self.false_negatives()],
            },
        )
        plot = ascii_series(
            [float(x) for x in self.lengths()],
            {"FP": self.false_positives(), "FN": self.false_negatives()},
            title="Fig 11: prefix-heuristic error rates vs prefix length",
        )
        return f"{table}\n{plot}"

    def has_sweet_spot(self, tolerance: float = 0.1) -> bool:
        """True if some length gets both rates under ``tolerance``.

        The paper's conclusion is that there is none.
        """
        return any(
            fp <= tolerance and fn <= tolerance
            for fp, fn in zip(self.false_positives(), self.false_negatives())
        )

    def comparisons(self) -> list[Comparison]:
        return [
            Comparison(
                "Fig 11",
                "false-positive rate at 8 bits vs 24 bits",
                "~1.0 -> ~0.0",
                f"{self.false_positives()[0]:.2f} -> {self.false_positives()[-1]:.2f}",
                "",
            ),
            Comparison(
                "Fig 11",
                "false-negative rate at 8 bits vs 24 bits",
                "~0.0 -> ~0.9",
                f"{self.false_negatives()[0]:.2f} -> {self.false_negatives()[-1]:.2f}",
                "",
            ),
            Comparison(
                "Fig 11",
                "sweet spot with both rates <= 0.1",
                "none",
                "none" if not self.has_sweet_spot() else "FOUND (mismatch!)",
                "",
            ),
        ]

    def shape_checks(self) -> list[ShapeCheck]:
        fp = self.false_positives()
        fn = self.false_negatives()
        return [
            ShapeCheck(
                "Fig 11",
                "false positives fall monotonically with prefix length",
                lambda: all(fp[i] >= fp[i + 1] - 0.02 for i in range(len(fp) - 1)),
            ),
            ShapeCheck(
                "Fig 11",
                "false negatives rise with prefix length",
                lambda: fn[-1] > fn[0] + 0.2,
            ),
            ShapeCheck(
                "Fig 11",
                "no sweet spot (both rates <= 0.1 simultaneously)",
                lambda: not self.has_sweet_spot(),
            ),
        ]


def run(scale: ExperimentScale | None = None) -> Fig11Result:
    """Regenerate Figure 11."""
    scale = scale or ExperimentScale()
    internet = azureus_internet(scale.seed, scale.paper_scale)
    peers = internet.responsive_peer_ids()
    ips = np.array([internet.host(p).ip for p in peers], dtype=np.uint64)
    close = close_pairs_from_internet(
        internet, peers, threshold_ms=CLOSE_PEER_THRESHOLD_MS, seed=scale.seed
    )
    rates = prefix_error_rates(ips, close, list(FIG11_PREFIX_LENGTHS))
    return Fig11Result(rates=rates)
