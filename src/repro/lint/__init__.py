"""repro-lint: AST-based invariant checker for this reproduction.

The reproduction's methodology rests on invariants nothing enforces at
runtime: every probe is billed (the paper's cost axis), every outcome is a
pure function of explicit seeds (common-random-number comparisons,
same-seed replay, fault-stream separation), and every query plan
is sans-io (the daemon's simulated timeline).  This package turns those
conventions into machine-checked rules over the stdlib ``ast`` — no new
runtime dependencies.

Rules (see ``python -m repro.lint --list-rules``):

* ``rng-discipline`` — no stdlib ``random``, no global numpy RNG state, no
  unseeded ``default_rng()`` outside ``util/rng.py``.
* ``no-wall-clock`` — no host-clock reads under ``src/repro/``.
* ``counted-probes`` — no direct oracle latency calls in the billed layers.
* ``plan-purity`` — ``_plan``/``query_plan`` bodies measure only through
  the counted query channel, offered via yielded rounds.
* ``ordered-iteration`` — no hash-ordered set loops in CRN-sensitive
  packages.
* ``frozen-specs`` — ``*Spec`` dataclasses are frozen and never mutated.

Suppress a deliberate exception with ``# repro-lint: allow(<rule-id>)`` on
(or directly above) the line; every other finding fails the run.
"""

from repro.lint.engine import FileReport, LintRun, lint_source, run_paths
from repro.lint.findings import Finding
from repro.lint.rules import Rule, all_rules

__all__ = [
    "FileReport",
    "Finding",
    "LintRun",
    "Rule",
    "all_rules",
    "lint_source",
    "run_paths",
]
