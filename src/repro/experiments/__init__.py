"""Experiment drivers: one per table/figure of the paper.

Each driver module exposes ``run(config) -> <Fig>Result``; results render
as text tables/ASCII plots and carry machine-checkable
:class:`~repro.analysis.compare.ShapeCheck` s asserting the paper's
qualitative claims.  ``repro.experiments.runner.run_all`` regenerates the
whole evaluation and the EXPERIMENTS.md comparison tables.

Scale: default configs run the full pipeline at laptop-friendly sizes;
``paper_scale=True`` restores the paper's populations and query counts.
"""

from repro.experiments.config import ExperimentScale

__all__ = ["ExperimentScale"]
