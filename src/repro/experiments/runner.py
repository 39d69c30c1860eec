"""Run every experiment and emit the EXPERIMENTS.md comparison report."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.analysis.compare import (
    Comparison,
    ShapeCheck,
    format_comparisons,
    format_shape_checks,
)
from repro.experiments import (
    ext_churn_resilience,
    ext_condition_extent,
    fig3_prediction_cdf,
    fig4_prediction_bins,
    fig5_intra_inter,
    fig6_cluster_sizes,
    fig7_intra_cluster,
    fig8_meridian_cluster_size,
    fig9_meridian_delta,
    fig10_ucl_hops,
    fig11_prefix_rates,
    table1_vantage,
)
from repro.experiments.config import ExperimentScale
from repro.util.errors import ConfigurationError

#: Every experiment driver, in paper order (plus the future-work extension).
ALL_EXPERIMENTS = (
    ("Table 1", table1_vantage),
    ("Fig 3", fig3_prediction_cdf),
    ("Fig 4", fig4_prediction_bins),
    ("Fig 5", fig5_intra_inter),
    ("Fig 6", fig6_cluster_sizes),
    ("Fig 7", fig7_intra_cluster),
    ("Fig 8", fig8_meridian_cluster_size),
    ("Fig 9", fig9_meridian_delta),
    ("Fig 10", fig10_ucl_hops),
    ("Fig 11", fig11_prefix_rates),
    ("Ext (extent)", ext_condition_extent),
    ("Ext (churn)", ext_churn_resilience),
)


@dataclass
class RunReport:
    """Everything ``run_all`` produces."""

    renders: dict[str, str] = field(default_factory=dict)
    comparisons: list[Comparison] = field(default_factory=list)
    shape_checks: list[ShapeCheck] = field(default_factory=list)
    durations: dict[str, float] = field(default_factory=dict)

    @property
    def all_shapes_hold(self) -> bool:
        return all(check.evaluate() for check in self.shape_checks)

    def render(self) -> str:
        sections = []
        for name, text in self.renders.items():
            sections.append(f"## {name}  ({self.durations[name]:.1f}s)\n\n{text}\n")
        sections.append("## Paper vs measured\n\n" + format_comparisons(self.comparisons))
        sections.append("\n## Shape checks\n\n" + format_shape_checks(self.shape_checks))
        return "\n".join(sections)


def run_all(
    scale: ExperimentScale | None = None,
    only: tuple[str, ...] | None = None,
) -> RunReport:
    """Run all (or a named subset of) experiments."""
    scale = scale or ExperimentScale()
    if only is not None:
        known = {name for name, _ in ALL_EXPERIMENTS}
        unknown = [name for name in only if name not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown experiment(s) {unknown}; choose from {sorted(known)}"
            )
    report = RunReport()
    for name, module in ALL_EXPERIMENTS:
        if only is not None and name not in only:
            continue
        # Wall-clock timing of experiment *phases* for the progress report:
        # durations are operator telemetry, never part of a scored outcome.
        start = time.perf_counter()  # repro-lint: allow(no-wall-clock)
        result = module.run(scale)
        elapsed = time.perf_counter() - start  # repro-lint: allow(no-wall-clock)
        report.durations[name] = elapsed
        report.renders[name] = result.render()
        report.comparisons.extend(result.comparisons())
        report.shape_checks.extend(result.shape_checks())
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: python -m repro.experiments.runner (or ``repro-experiments``).

    Exits 1 when any shape check fails.
    """
    import argparse
    from dataclasses import replace

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run the paper's experiments and print the comparison report.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="experiment names to run (e.g. 'Table 1' 'Fig 8'); default all",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's exact experiment sizes (slow: minutes per figure)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for harness trial fan-out (default 1)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    scale = ExperimentScale.paper() if args.paper_scale else ExperimentScale()
    scale = replace(scale, workers=args.workers)
    report = run_all(scale, only=tuple(args.only) if args.only else None)
    print(report.render())
    print(f"\nall shape checks hold: {report.all_shapes_hold}")
    return 0 if report.all_shapes_hold else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
