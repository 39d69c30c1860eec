"""Churn benchmark: query throughput and maintenance cost.

Runs the registered ``steady-churn`` scenario (a zero-delay daemon whose
membership process churns between queries, see
:mod:`repro.harness.scenario`) through the query engine for a set of
schemes with distinct maintenance policies, and reports each scheme's

* ``queries_per_sec`` — wall-clock throughput of the daemon run
  (algorithm build included, world build excluded);
* ``mean_maintenance_probes_per_query`` / ``total_maintenance_probes`` —
  the honest membership-maintenance bill next to the query probe bill
  (the whole run's ledger total, warmup included, spread over queries);
* ``exact_rate`` / ``mean_membership_size`` — accuracy against the
  membership alive at query time, and the population the trial averaged.

A second section sweeps the **maintenance disciplines** (eager vs
coalesce-8 vs lazy, see
:data:`repro.algorithms.base.MAINTENANCE_DISCIPLINES`) for the
rebuild-policy schemes on the registered ``steady-churn`` spec itself —
the schemes whose per-event |M|² bill deferral exists to amortise —
and reports each discipline's ``maintenance_probes_per_event`` plus the
eager/coalesce savings ratio.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_churn.py \
        --scale paper --output BENCH_churn.json

``--scale tiny`` is the CI smoke setting (the registered scenario's own
240-host world, trimmed query count); ``--scale paper`` scales the main
suite up to n=2000 hosts with 300 queries — the committed perf baseline.
``--check`` validates the report it just wrote and exits 1 when a gate
fails: the scheme and discipline sets, free maintenance for random-probe
(and a non-zero bill for the index-carrying schemes), and coalesce:8
amortising the rebuild bill at least ``MIN_EAGER_OVER_COALESCE8``-fold.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    RandomProbeSearch,
    TapestrySearch,
)
from repro.harness import QueryEngine, SamplingSpec, churn_spec, get_scenario
from repro.harness.scenario import CHURN_STEP_MS
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig

SCALES = ("tiny", "paper")

#: Schemes spanning the maintenance-policy spectrum: free incremental
#: (random-probe), cheap incremental (beaconing), structural incremental
#: (meridian ring insert/evict).  The rebuild-policy schemes bill |M|² per
#: event by design and are exercised by the discipline sweep below.
SCHEMES = (
    ("random-probe", lambda: RandomProbeSearch(budget=32)),
    ("beaconing", BeaconSearch),
    ("meridian", MeridianSearch),
)

#: The scheduling disciplines under comparison.
DISCIPLINES = ("eager", "coalesce:8", "lazy")

#: Rebuild-policy schemes: every applied event costs a counted |M|²
#: reconstruction, so the coalescing window translates directly into the
#: per-event bill.
DISCIPLINE_SCHEMES = (
    ("karger-ruhl", KargerRuhlSearch),
    ("tapestry", TapestrySearch),
)

#: Coalescing must amortise the rebuild bill: at least this many times
#: fewer maintenance probes per event than eager.
MIN_EAGER_OVER_COALESCE8 = 5.0


def churn_scenario(scale: str):
    """The steady-churn smoke scenario, scaled to the requested size."""
    base = get_scenario("steady-churn")
    if scale == "tiny":
        return base.with_(n_queries=50, trials=1)
    # Paper scale: n = 10 clusters x 100 end-networks x 2 peers = 2000
    # hosts, with the same balanced churn dynamics.
    return base.with_(
        topology=ClusteredConfig(
            n_clusters=10, end_networks_per_cluster=100, delta=0.2
        ),
        sampling=SamplingSpec(n_targets=100),
        daemon=churn_spec(
            initial_fraction=0.8,
            arrival_rate=1.0,
            departure_rate=1.0,
            session_length_ms=150 * CHURN_STEP_MS,
            warmup_ms=25 * CHURN_STEP_MS,
            min_members=200,
        ),
        n_queries=300,
        trials=1,
    )


def run_churn(algorithm, scenario, world):
    """One daemon run of ``scenario`` on ``world``; returns (record, s)."""
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


def bench_scheme(name: str, factory, scenario, world) -> dict:
    record, elapsed = run_churn(factory(), scenario, world)
    return {
        "name": name,
        "maintenance_policy": factory().maintenance_policy,
        "n_queries": record.n_queries,
        "trial_s": elapsed,
        "queries_per_sec": record.n_queries / elapsed,
        "mean_maintenance_probes_per_query": (
            record.mean_maintenance_probes_per_query
        ),
        "total_maintenance_probes": record.total_maintenance_probes,
        "mean_probes_per_query": record.mean_probes_per_query,
        "exact_rate": record.exact_rate,
        "cluster_rate": record.cluster_rate,
        "mean_membership_size": record.mean_membership_size,
    }


def discipline_scenario(scale: str):
    """The discipline sweep workload: steady-churn's own 240-host spec.

    Rebuild-policy schemes pay a counted |M|² reconstruction per applied
    event, so the sweep runs on the registered scenario's own world (the
    comparison is about the *ratio* between disciplines, which the
    membership size scales out of) with the query count trimmed per
    scale — eager tapestry at n=2000 would spend minutes per trial
    re-deriving a number the 240-host run already pins.
    """
    base = get_scenario("steady-churn")
    if scale == "tiny":
        return base.with_(
            n_queries=15,
            trials=1,
            daemon=replace(base.daemon, warmup_ms=5 * CHURN_STEP_MS),
        )
    return base.with_(n_queries=80, trials=1)


def bench_discipline(name, factory, discipline: str, scenario, world) -> dict:
    algorithm = factory(maintenance=discipline)
    record, elapsed = run_churn(algorithm, scenario, world)
    return {
        "name": name,
        "discipline": discipline,
        "n_queries": record.n_queries,
        "n_events": record.n_churn_events,
        "trial_s": elapsed,
        "queries_per_sec": record.n_queries / elapsed,
        "total_maintenance_probes": record.total_maintenance_probes,
        "maintenance_probes_per_event": record.maintenance_probes_per_event,
        "rebuilds": int(algorithm.rebuild_count),
        "exact_rate": record.exact_rate,
        "cluster_rate": record.cluster_rate,
    }


def run_discipline_sweep(scale: str, seed: int) -> dict:
    scenario = discipline_scenario(scale).with_(seed=seed)
    world = build_clustered_oracle(
        scenario.topology, seed=seed, core_pool_size=scenario.core_pool_size
    )
    schemes = []
    for name, factory in DISCIPLINE_SCHEMES:
        rows = []
        for discipline in DISCIPLINES:
            row = bench_discipline(name, factory, discipline, scenario, world)
            print(
                f"{name} [{discipline}]: "
                f"maint/event={row['maintenance_probes_per_event']:.0f}  "
                f"rebuilds={row['rebuilds']}  "
                f"exact={row['exact_rate']:.2f}  {row['trial_s']:.1f}s"
            )
            rows.append(row)
        per_event = {r["discipline"]: r["maintenance_probes_per_event"] for r in rows}
        ratio = (
            per_event["eager"] / per_event["coalesce:8"]
            if per_event["coalesce:8"] > 0
            else float("inf")
        )
        print(f"{name}: eager/coalesce-8 maintenance ratio {ratio:.1f}x")
        schemes.append(
            {"name": name, "rows": rows, "eager_over_coalesce8": ratio}
        )
    return {
        "scenario": "steady-churn",
        "n_hosts": int(world.topology.n_nodes),
        "n_queries": scenario.n_queries,
        "schemes": schemes,
    }


def run_suite(scale: str, seed: int) -> dict:
    scenario = churn_scenario(scale)
    world = build_clustered_oracle(
        scenario.topology, seed=seed, core_pool_size=scenario.core_pool_size
    )
    scenario = scenario.with_(seed=seed)
    results = []
    for name, factory in SCHEMES:
        result = bench_scheme(name, factory, scenario, world)
        print(
            f"{result['name']}: {result['queries_per_sec']:.1f} q/s  "
            f"maint/q={result['mean_maintenance_probes_per_query']:.1f}  "
            f"probes/q={result['mean_probes_per_query']:.1f}  "
            f"exact={result['exact_rate']:.2f}  "
            f"members~{result['mean_membership_size']:.0f}"
        )
        results.append(result)
    return {
        "suite": "churn",
        "scale": scale,
        "seed": seed,
        "scenario": "steady-churn",
        "n_hosts": int(world.topology.n_nodes),
        "benchmarks": results,
        "disciplines": run_discipline_sweep(scale, seed),
    }


def check_report(report: dict) -> list[str]:
    """Problems with a report (empty when every gate holds)."""
    problems = []
    if report["suite"] != "churn":
        problems.append(f"suite is {report['suite']!r}")
    if report["scenario"] != "steady-churn":
        problems.append(f"scenario is {report['scenario']!r}")
    names = {b["name"] for b in report["benchmarks"]}
    if names != {name for name, _ in SCHEMES}:
        problems.append(f"schemes are {sorted(names)}")
    for bench in report["benchmarks"]:
        name = bench["name"]
        if bench["queries_per_sec"] <= 0 or bench["mean_probes_per_query"] <= 0:
            problems.append(f"{name}: no throughput or no query probes")
        # Index-carrying schemes must bill maintenance under churn; the
        # index-free baseline must stay free.
        maintenance = bench["total_maintenance_probes"]
        if (name == "random-probe") != (maintenance == 0):
            problems.append(f"{name}: total maintenance {maintenance}")
    sweep = report["disciplines"]["schemes"]
    names = {s["name"] for s in sweep}
    if names != {name for name, _ in DISCIPLINE_SCHEMES}:
        problems.append(f"discipline schemes are {sorted(names)}")
    for scheme in sweep:
        disciplines = {r["discipline"] for r in scheme["rows"]}
        if disciplines != set(DISCIPLINES):
            problems.append(f"{scheme['name']}: disciplines {sorted(disciplines)}")
        ratio = scheme["eager_over_coalesce8"]
        if not ratio >= MIN_EAGER_OVER_COALESCE8:
            problems.append(
                f"{scheme['name']}: eager/coalesce-8 {ratio:.2f}x < "
                f"{MIN_EAGER_OVER_COALESCE8}x"
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
            "where to write the JSON report (default: BENCH_churn.json for "
            "--scale paper, bench_churn_<scale>.json otherwise, so a casual "
            "tiny run cannot clobber the committed paper baseline)"
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
            Path("BENCH_churn.json")
            if args.scale == "paper"
            else Path(f"bench_churn_{args.scale}.json")
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
        print("churn checks OK: schemes + discipline sweep")


if __name__ == "__main__":
    main()
