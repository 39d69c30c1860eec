"""Daemon scaling benchmark: flat per-event-loop-step cost up to 1M peers.

The vectorised daemon core (struct-of-arrays member state, batch round
stepping, matrix-free sparse worlds) exists so the simulated-time service
scales by *population* without the per-step cost creeping up.  This
benchmark pins that claim with two sections:

* ``sweep`` — a static-membership ``random-probe`` (budget 32) daemon run
  at each population in the scale's sweep, built on
  :func:`~repro.latency.builder.build_sparse_clustered_world` (O(n)
  memory; a dense 1M matrix would be 8 TB).  Static membership plus the
  single-round baseline isolates what we are measuring: the cost of one
  event-loop step (arrival, round completion, FIFO handoff), which must
  not grow with n.  ``per_step_cost_ratio`` divides the largest
  population's per-step cost by the smallest's — the committed paper
  baseline holds it <= 1.5, CI smoke holds <= 2 on the tiny scale.
* ``daemon_steady_1m`` — the registered ``daemon-steady`` spec (Poisson
  load, background churn) served at n=1,000,000, proving the full service
  path — membership events, FIFO queueing, time-weighted load accounting
  — completes at the paper's motivating population.

Setup (world build, member split, index build) is timed separately from
serving; only serving wall-clock divides into the per-step cost.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_daemon_scale.py \
        --scale paper --output BENCH_daemon_scale.json

``--scale tiny`` (populations 2k and 8k, no 1M steady section) is the CI
smoke setting; ``--scale paper`` sweeps 2k -> 20k -> 100k -> 1M — the
committed perf baseline.  ``--check`` validates the report it just wrote
(shape, ordering, and a per-step cost ratio of at most 2) and exits 1 on
any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import RandomProbeSearch
from repro.harness import DaemonSpec, SamplingSpec, get_scenario
from repro.latency.builder import build_sparse_clustered_world
from repro.service import QueryDaemon
from repro.topology.clustered import ClusteredConfig
from repro.util.rng import make_rng

SCALES = ("tiny", "paper")

#: Population -> world shape (n = clusters x end-networks x 2 peers).
POPULATIONS = {
    2_000: ClusteredConfig(n_clusters=10, end_networks_per_cluster=100, delta=0.2),
    8_000: ClusteredConfig(n_clusters=20, end_networks_per_cluster=200, delta=0.2),
    20_000: ClusteredConfig(n_clusters=20, end_networks_per_cluster=500, delta=0.2),
    100_000: ClusteredConfig(
        n_clusters=50, end_networks_per_cluster=1000, delta=0.2
    ),
    1_000_000: ClusteredConfig(
        n_clusters=100, end_networks_per_cluster=5000, delta=0.2
    ),
}

SWEEPS = {"tiny": (2_000, 8_000), "paper": (2_000, 20_000, 100_000, 1_000_000)}

#: Static-membership service load for the per-step sweep.
SWEEP_SPEC = DaemonSpec(
    mean_interarrival_ms=40.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
)

SWEEP_BUDGET = 32

#: Per-step cost may grow at most this much from the smallest to the
#: largest population (2x headroom for CI noise; the committed paper
#: baseline holds <= 1.5x up to n=1M).
MAX_PER_STEP_COST_RATIO = 2.0


def _build_daemon(
    n_hosts: int, spec: DaemonSpec, budget: int, seed: int, n_targets: int = 100
) -> QueryDaemon:
    """World + member split + build + daemon, mirroring ``run_daemon_trial``.

    Same stream discipline as the engine front-end (targets off the trial
    rng first, workload generator split next) so these timings replay the
    exact runs the harness would produce — minus the scoring pass, which
    is not event-loop work.
    """
    world = build_sparse_clustered_world(POPULATIONS[n_hosts], seed=seed)
    rng = make_rng(seed)
    targets = SamplingSpec(n_targets=n_targets).sample(world, rng)
    members = np.setdiff1d(np.arange(world.topology.n_nodes), targets)
    workload_rng = np.random.default_rng(int(rng.integers(2**63)))
    n_initial = int(round(spec.initial_fraction * members.size))
    n_initial = min(members.size, max(spec.min_members, n_initial))
    shuffled = workload_rng.permutation(members)
    live = np.sort(shuffled[:n_initial])
    standby = shuffled[n_initial:].tolist()
    algorithm = RandomProbeSearch(budget=budget)
    algorithm.build(world.oracle, live, seed=rng)
    return QueryDaemon(
        algorithm,
        spec,
        targets=targets,
        workload_rng=workload_rng,
        algo_rng=rng,
        standby=standby,
    )


def _timed_run(daemon: QueryDaemon, n_queries: int) -> tuple[dict, object]:
    start = time.perf_counter()
    run = daemon.run(n_queries)
    serve_s = time.perf_counter() - start
    tta = np.array([job.time_to_answer_ms for job in run.jobs])
    return {
        "n_queries": n_queries,
        "serve_s": serve_s,
        "loop_events": run.loop_events,
        "per_step_us": 1e6 * serve_s / run.loop_events,
        "makespan_ms": run.makespan_ms,
        "tta_median_ms": float(np.median(tta)),
        "tta_p95_ms": float(np.percentile(tta, 95)),
        "tta_p99_ms": float(np.percentile(tta, 99)),
        "in_flight_probes_max": run.in_flight_probes_max,
        "queue_depth_max": run.queue_depth_max,
    }, run


def sweep_point(n_hosts: int, seed: int, n_queries: int) -> dict:
    start = time.perf_counter()
    daemon = _build_daemon(n_hosts, SWEEP_SPEC, SWEEP_BUDGET, seed)
    setup_s = time.perf_counter() - start
    row, _run = _timed_run(daemon, n_queries)
    row = {"n_hosts": n_hosts, "setup_s": setup_s, **row}
    print(
        f"  n={n_hosts:>9,}: setup {setup_s:6.1f}s  serve {row['serve_s']:6.2f}s  "
        f"{row['loop_events']} events  {row['per_step_us']:.1f}us/step"
    )
    return row


def daemon_steady_1m(seed: int, n_queries: int) -> dict:
    spec = get_scenario("daemon-steady").daemon
    start = time.perf_counter()
    daemon = _build_daemon(1_000_000, spec, SWEEP_BUDGET, seed)
    setup_s = time.perf_counter() - start
    row, run = _timed_run(daemon, n_queries)
    print(
        f"  steady 1M: setup {setup_s:.1f}s  serve {row['serve_s']:.2f}s  "
        f"{run.n_events} membership events  tta p50 {row['tta_median_ms']:.1f}ms"
    )
    return {
        "n_hosts": 1_000_000,
        "scenario": "daemon-steady",
        "completes": True,
        "setup_s": setup_s,
        "n_membership_events": run.n_events,
        **row,
    }


def run_suite(scale: str, seed: int) -> dict:
    n_queries = 120 if scale == "tiny" else 300
    print(f"per-step sweep (random-probe budget {SWEEP_BUDGET}, static membership)")
    sweep = [sweep_point(n, seed, n_queries) for n in SWEEPS[scale]]
    ratio = sweep[-1]["per_step_us"] / sweep[0]["per_step_us"]
    print(
        f"per-step cost ratio n={sweep[-1]['n_hosts']:,} / n={sweep[0]['n_hosts']:,}: "
        f"{ratio:.2f}x"
    )
    report = {
        "suite": "daemon-scale",
        "scale": scale,
        "seed": seed,
        "scheme": "random-probe",
        "sweep_budget": SWEEP_BUDGET,
        "sweep": sweep,
        "per_step_cost_ratio": ratio,
    }
    if scale == "paper":
        print("steady-state service at 1M peers")
        report["daemon_steady_1m"] = daemon_steady_1m(seed, n_queries)
    return report


def check_report(report: dict) -> list[str]:
    """Problems with a report (empty when every gate holds)."""
    problems = []
    if report["suite"] != "daemon-scale":
        problems.append(f"suite is {report['suite']!r}")
    if report["scheme"] != "random-probe":
        problems.append(f"scheme is {report['scheme']!r}")
    sweep = report["sweep"]
    ns = [point["n_hosts"] for point in sweep]
    if len(sweep) < 2 or ns != sorted(ns) or ns[-1] <= ns[0]:
        problems.append(f"sweep populations not ascending: {ns}")
    for point in sweep:
        n = point["n_hosts"]
        if point["loop_events"] <= 0:
            problems.append(f"n={n}: no loop events")
        if point["per_step_us"] <= 0:
            problems.append(f"n={n}: per-step cost {point['per_step_us']}")
        if not 0 < point["tta_median_ms"] <= point["tta_p95_ms"]:
            problems.append(
                f"n={n}: tta median {point['tta_median_ms']} not in "
                f"(0, p95={point['tta_p95_ms']}]"
            )
    # The vectorised core's whole point: per-event-loop-step cost must
    # not grow with the population.
    ratio = report["per_step_cost_ratio"]
    if ratio > MAX_PER_STEP_COST_RATIO:
        problems.append(
            f"per-step cost ratio {ratio:.2f}x > {MAX_PER_STEP_COST_RATIO}x"
        )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: BENCH_daemon_scale.json "
            "for --scale paper, bench_daemon_scale_<scale>.json otherwise, so "
            "a casual tiny run cannot clobber the committed paper baseline)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the report's gates and exit 1 if any fails",
    )
    args = parser.parse_args()
    output = args.output
    if output is None:
        output = (
            Path("BENCH_daemon_scale.json")
            if args.scale == "paper"
            else Path(f"bench_daemon_scale_{args.scale}.json")
        )
    report = run_suite(args.scale, args.seed)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        if problems:
            sys.exit(1)
        ns = [point["n_hosts"] for point in report["sweep"]]
        print(
            "daemon scale checks OK:",
            ns,
            f"per-step ratio {report['per_step_cost_ratio']:.2f}x",
        )


if __name__ == "__main__":
    main()
