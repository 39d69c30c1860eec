"""What the perf suites share: the command line, the timed trial, paper scale.

Each ``bench_*.py`` script in this directory defines its scenarios, its
report rows and its gates (``run_suite(args) -> report`` and
``check_report(report) -> problems``) and hands them to :func:`main`,
which parses ``--scale``/``--seed``/``--output``/``--check``, writes the
JSON report and exits 1 when a gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.harness import QueryEngine, SamplingSpec, churn_spec
from repro.harness.scenario import CHURN_STEP_MS
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig

SCALES = ("tiny", "paper")

#: The dense suites' paper-scale world: n = 10 clusters x 100
#: end-networks x 2 peers = 2000 hosts, 100 targets.
PAPER_TOPOLOGY = ClusteredConfig(
    n_clusters=10, end_networks_per_cluster=100, delta=0.2
)
PAPER_SAMPLING = SamplingSpec(n_targets=100)

#: ``steady-churn``'s balanced churn dynamics at the paper-scale world.
PAPER_CHURN = churn_spec(
    initial_fraction=0.8,
    arrival_rate=1.0,
    departure_rate=1.0,
    session_length_ms=150 * CHURN_STEP_MS,
    warmup_ms=25 * CHURN_STEP_MS,
    min_members=200,
)


def paper_scale(scenario, n_queries: int, churn: bool = False):
    """``scenario`` on the 2000-host paper world, one trial of ``n_queries``."""
    return scenario.with_(
        topology=PAPER_TOPOLOGY,
        sampling=PAPER_SAMPLING,
        daemon=PAPER_CHURN if churn else scenario.daemon,
        n_queries=n_queries,
        trials=1,
    )


def build_world(scenario):
    """The dense clustered world of ``scenario``, seeded by its seed."""
    return build_clustered_oracle(
        scenario.topology,
        seed=scenario.seed,
        core_pool_size=scenario.core_pool_size,
    )


def timed_trial(algorithm, scenario, world):
    """One daemon run of ``scenario`` on ``world``; returns (record, s).

    The wall clock covers the algorithm build and the scoring pass, not
    the world build.
    """
    start = time.perf_counter()
    record = QueryEngine().run_daemon_trial(
        world,
        algorithm,
        scenario.daemon,
        sampling=scenario.sampling,
        n_queries=scenario.n_queries,
        seed=scenario.seed,
        noise=scenario.noise,
    )
    return record, time.perf_counter() - start


def main(name, doc, run_suite, check_report, *, seed=2008, add_arguments=None):
    """Run one suite from the command line.

    The report goes to ``--output``, by default ``BENCH_<name>.json`` for
    ``--scale paper`` and ``bench_<name>_<scale>.json`` otherwise, so a
    casual tiny run cannot clobber the committed paper baseline.
    ``seed=None`` keeps each scenario's registered seed unless ``--seed``
    overrides it.
    """
    parser = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument(
        "--seed",
        type=int,
        default=seed,
        help="every scenario's seed (default: %(default)s; None keeps their own)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="where to write the JSON report"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the report's gates and exit 1 if any fails",
    )
    if add_arguments is not None:
        add_arguments(parser)
    args = parser.parse_args()
    if args.output is None:
        args.output = Path(
            f"BENCH_{name}.json"
            if args.scale == "paper"
            else f"bench_{name}_{args.scale}.json"
        )
    report = run_suite(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        if problems:
            sys.exit(1)
        print(f"{name} checks OK")
