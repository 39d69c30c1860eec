"""Broken-network daemon benchmark: all seven schemes under faults.

Runs the three registered fault scenarios (see
:mod:`repro.harness.scenario`) through
:meth:`~repro.harness.engine.QueryEngine.run_daemon_trial` for every
latency-only scheme:

* ``daemon-lossy`` — 3% intra / 10% cross-cluster loss with bounded
  exponential-backoff retransmits;
* ``daemon-natted`` — a quarter of the hosts behind NATs, probes
  relaying through designated reachable peers and billing the detour;
* ``daemon-partition`` — two scheduled regional outage windows plus 5%
  clock skew, exercising full probe timeouts and whole-plan retries.

Each scheme reports its simulated time-to-answer percentiles (timeout
waits, retransmit backoffs and relay detours included), its
**availability** — the fraction of queries answered within the
scenario's deadline — and the raw fault bills (drops, retransmits,
timeouts, relayed probes, retries).  Time-to-answer under faults is the
paper's "difficulty" with the network allowed to misbehave: schemes with
deep sequential round structure expose more of the timeout ladder per
query than one-shot fan-outs do.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_daemon_faults.py \
        --scale paper --output BENCH_daemon_faults.json

``--scale tiny`` is the CI smoke setting (the registered scenarios' own
240-host world, trimmed query count); ``--scale paper`` runs the full
registered workloads — the committed perf baseline.
``--check`` validates the report it just wrote and exits 1 when a gate
fails: the scenario and scheme sets, ordered positive tta percentiles,
drops = retransmits + timeouts, and each scenario exercising its fault
mode (lossy drops with availability >= 0.95, NAT relays with a billed
detour, partition timeouts and retries).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    PicSearch,
    RandomProbeSearch,
    TapestrySearch,
    TiersSearch,
)
from repro.analysis.compare import format_trial_records, rank_by_time_to_answer
from repro.harness import QueryEngine, get_scenario

SCALES = ("tiny", "paper")

FAULT_SCENARIOS = ("daemon-lossy", "daemon-natted", "daemon-partition")

#: All seven latency-only schemes, parameterised for the 240-host fault
#: worlds (matching the daemon test sizes so round structures are
#: comparable, not budget-starved).
SCHEMES = (
    ("random-probe", lambda: RandomProbeSearch(budget=16)),
    ("karger-ruhl", lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12)),
    ("tapestry", lambda: TapestrySearch(id_digits=4, probe_budget_per_level=8)),
    ("tiers", lambda: TiersSearch(branching=8)),
    ("meridian", MeridianSearch),
    ("beaconing", lambda: BeaconSearch(n_beacons=8, probe_budget=12)),
    ("pic", PicSearch),
)

def bench_scheme(name: str, factory, scenario, world) -> tuple[dict, object]:
    engine = QueryEngine()
    start = time.perf_counter()
    record = engine.run_daemon_trial(
        world,
        factory(),
        scenario.daemon,
        sampling=scenario.sampling,
        n_queries=scenario.n_queries,
        seed=scenario.seed,
    )
    elapsed = time.perf_counter() - start
    row = {
        "name": name,
        "n_queries": record.n_queries,
        "trial_s": elapsed,
        "tta_median_ms": record.tta_median_ms,
        "tta_p95_ms": record.tta_p95_ms,
        "tta_p99_ms": record.tta_p99_ms,
        "tta_mean_ms": record.tta_mean_ms,
        "availability": record.availability,
        "deadline_ms": record.deadline_ms,
        "mean_probe_rounds": record.mean_probe_rounds,
        "mean_probes_per_query": record.mean_probes_per_query,
        "probe_drops": record.total_probe_drops,
        "probe_retransmits": record.total_probe_retransmits,
        "probe_timeouts": record.total_probe_timeouts,
        "relayed_probes": record.total_relayed_probes,
        "relay_extra_ms": record.relay_extra_ms,
        "query_retries": record.total_query_retries,
        "makespan_ms": record.makespan_ms,
        "exact_rate": record.exact_rate,
        "cluster_rate": record.cluster_rate,
    }
    return row, record


def bench_scenario(scenario_name: str, scale: str, seed: int | None) -> dict:
    scenario = get_scenario(scenario_name)
    if seed is not None:
        scenario = scenario.with_(seed=seed)
    if scale == "tiny":
        scenario = scenario.with_(n_queries=40)
    from repro.latency.builder import build_clustered_oracle

    world = build_clustered_oracle(
        scenario.topology,
        seed=scenario.seed,
        core_pool_size=scenario.core_pool_size,
    )
    print(f"== {scenario.name}: {scenario.description}")
    results = []
    records = []
    for name, factory in SCHEMES:
        row, record = bench_scheme(name, factory, scenario, world)
        print(
            f"{row['name']}: tta p50={row['tta_median_ms']:.1f}ms "
            f"p99={row['tta_p99_ms']:.1f}ms  avail={row['availability']:.3f}  "
            f"drops={row['probe_drops']} to={row['probe_timeouts']} "
            f"relay={row['relayed_probes']} retries={row['query_retries']}  "
            f"{row['trial_s']:.1f}s"
        )
        results.append(row)
        records.append(record)
    print()
    print(format_trial_records(rank_by_time_to_answer(records)))
    print()
    return {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "deadline_ms": scenario.daemon.faults.deadline_ms,
        "n_hosts": int(world.topology.n_nodes),
        "n_queries": scenario.n_queries,
        "ranking_by_tta_median": [
            r.scheme for r in rank_by_time_to_answer(records)
        ],
        "benchmarks": results,
    }


def run_suite(scale: str, seed: int | None) -> dict:
    return {
        "suite": "daemon-faults",
        "scale": scale,
        "seed": seed,
        "scenarios": [
            bench_scenario(name, scale, seed) for name in FAULT_SCENARIOS
        ],
    }


def check_report(report: dict) -> list[str]:
    """Problems with a report (empty when every gate holds)."""
    problems = []
    if report["suite"] != "daemon-faults":
        problems.append(f"suite is {report['suite']!r}")
    scenarios = {s["scenario"]: s for s in report["scenarios"]}
    if set(scenarios) != set(FAULT_SCENARIOS):
        return problems + [f"scenarios are {sorted(scenarios)}"]
    all_schemes = {name for name, _ in SCHEMES}
    for sc in scenarios.values():
        names = {b["name"] for b in sc["benchmarks"]}
        if names != all_schemes:
            problems.append(f"{sc['scenario']}: schemes are {sorted(names)}")
        if set(sc["ranking_by_tta_median"]) != all_schemes:
            problems.append(
                f"{sc['scenario']}: ranking is {sc['ranking_by_tta_median']}"
            )
        for bench in sc["benchmarks"]:
            where = f"{sc['scenario']}/{bench['name']}"
            if not 0 < bench["tta_median_ms"] <= bench["tta_p99_ms"]:
                problems.append(
                    f"{where}: tta median {bench['tta_median_ms']} not in "
                    f"(0, p99={bench['tta_p99_ms']}]"
                )
            # The bill decomposition invariant: every dropped probe was
            # either retransmitted or timed the attempt out.
            if bench["probe_drops"] != (
                bench["probe_retransmits"] + bench["probe_timeouts"]
            ):
                problems.append(
                    f"{where}: {bench['probe_drops']} drops != "
                    f"{bench['probe_retransmits']} retransmits + "
                    f"{bench['probe_timeouts']} timeouts"
                )
    # Each scenario must actually exercise its fault mode.
    for bench in scenarios["daemon-lossy"]["benchmarks"]:
        if not bench["probe_drops"] > 0:
            problems.append(f"daemon-lossy/{bench['name']}: no probe drops")
        # Availability floor: bounded retransmits plus whole-plan retries
        # must keep every scheme answering within the deadline under the
        # smoke loss rate.
        if not bench["availability"] >= 0.95:
            problems.append(
                f"daemon-lossy/{bench['name']}: availability "
                f"{bench['availability']} < 0.95"
            )
    for bench in scenarios["daemon-natted"]["benchmarks"]:
        if not bench["relayed_probes"] > 0:
            problems.append(f"daemon-natted/{bench['name']}: no relayed probes")
        if not bench["relay_extra_ms"] > 0:
            problems.append(f"daemon-natted/{bench['name']}: no relay detour")
    part = scenarios["daemon-partition"]["benchmarks"]
    if not sum(b["probe_timeouts"] for b in part) > 0:
        problems.append("daemon-partition: no probe timeouts")
    if not sum(b["query_retries"] for b in part) > 0:
        problems.append("daemon-partition: no query retries")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every scenario's registered seed (default: keep them)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: "
            "BENCH_daemon_faults.json for --scale paper, "
            "bench_daemon_faults_<scale>.json otherwise, so a casual tiny "
            "run cannot clobber the committed paper baseline)"
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
            Path("BENCH_daemon_faults.json")
            if args.scale == "paper"
            else Path(f"bench_daemon_faults_{args.scale}.json")
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
        print(
            "daemon faults smoke OK:",
            sorted(s["scenario"] for s in report["scenarios"]),
        )


if __name__ == "__main__":
    main()
