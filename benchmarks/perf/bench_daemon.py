"""Simulated-time daemon benchmark: time-to-answer under steady load.

Runs the registered ``daemon-steady`` scenario (see
:mod:`repro.harness.scenario`) through
:meth:`~repro.harness.engine.QueryEngine.run_daemon_trial` for the three
schemes spanning the round-structure spectrum — ``random-probe`` (one
fan-out), ``beaconing`` (two rounds), ``meridian`` (ring descent, one
round per hop) — and reports each scheme's

* ``tta_median_ms`` / ``tta_p95_ms`` / ``tta_p99_ms`` — simulated
  time-to-answer percentiles, queueing delay included: the paper's
  "difficulty" in wall-clock terms rather than probe count;
* ``mean_probe_rounds`` / ``mean_probes_per_query`` — the critical-path
  depth next to the classic probe bill (more probes in *fewer* rounds can
  answer faster — exactly what probe counting cannot see);
* ``queue_depth_time_avg`` / ``in_flight_probes_max`` — daemon load
  stats, plus ``exact_rate`` for accuracy under the live membership.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_daemon.py \
        --scale paper --output BENCH_daemon.json

``--scale tiny`` is the CI smoke setting (the registered scenario's own
240-host world, trimmed query count); ``--scale paper`` scales the world
to n=2000 hosts with 300 queries — the committed perf baseline.
``--check`` validates the report it just wrote and exits 1 when a gate
fails: the scheme and ranking sets, ordered positive tta percentiles,
random-probe answering in exactly one round (the others in more), a
positive simulated throughput, and dispatch charging never speeding an
answer up.
"""

from __future__ import annotations

from dataclasses import replace

from driver import build_world, main, paper_scale, timed_trial
from repro.algorithms import BeaconSearch, MeridianSearch, RandomProbeSearch
from repro.analysis.compare import format_trial_records, rank_by_time_to_answer
from repro.harness import get_scenario

SCHEMES = (
    ("random-probe", lambda: RandomProbeSearch(budget=32)),
    ("beaconing", BeaconSearch),
    ("meridian", MeridianSearch),
)


def daemon_scenario(scale: str):
    """The daemon-steady scenario, scaled to the requested size."""
    base = get_scenario("daemon-steady")
    if scale == "tiny":
        return base.with_(n_queries=40, trials=1)
    # Paper scale: same steady Poisson load and background churn.
    return paper_scale(base, n_queries=300)


def bench_scheme(name: str, factory, scenario, world) -> dict:
    record, elapsed = timed_trial(factory(), scenario, world)
    return {
        "name": name,
        "n_queries": record.n_queries,
        "trial_s": elapsed,
        "tta_median_ms": record.tta_median_ms,
        "tta_p95_ms": record.tta_p95_ms,
        "tta_p99_ms": record.tta_p99_ms,
        "tta_mean_ms": record.tta_mean_ms,
        "mean_queue_wait_ms": record.mean_queue_wait_ms,
        "mean_probe_rounds": record.mean_probe_rounds,
        "mean_probes_per_query": record.mean_probes_per_query,
        "simulated_queries_per_sec": record.simulated_queries_per_sec,
        "makespan_ms": record.makespan_ms,
        "queue_depth_time_avg": record.queue_depth_time_avg,
        "queue_depth_max": record.queue_depth_max,
        "in_flight_probes_time_avg": record.in_flight_probes_time_avg,
        "in_flight_probes_max": record.in_flight_probes_max,
        "n_membership_events": record.n_churn_events,
        "total_maintenance_probes": record.total_maintenance_probes,
        "ring_repair_passes": record.ring_repair_passes,
        "ring_repair_probes": record.ring_repair_probes,
        "exact_rate": record.exact_rate,
        "cluster_rate": record.cluster_rate,
    }, record


def bench_section(scenario, world) -> tuple[list[dict], list]:
    results = []
    records = []
    for name, factory in SCHEMES:
        row, record = bench_scheme(name, factory, scenario, world)
        print(
            f"{row['name']}: tta p50={row['tta_median_ms']:.1f}ms "
            f"p95={row['tta_p95_ms']:.1f}ms p99={row['tta_p99_ms']:.1f}ms  "
            f"rounds/q={row['mean_probe_rounds']:.2f}  "
            f"probes/q={row['mean_probes_per_query']:.1f}  "
            f"exact={row['exact_rate']:.2f}  {row['trial_s']:.1f}s"
        )
        results.append(row)
        records.append(record)
    return results, records


def run_suite(args) -> dict:
    scale, seed = args.scale, args.seed
    scenario = daemon_scenario(scale).with_(seed=seed)
    world = build_world(scenario)
    results, records = bench_section(scenario, world)
    print()
    print(format_trial_records(rank_by_time_to_answer(records)))
    # Same workload with the coordination hop billed: each probe's
    # completion also pays the entry->prober dispatch RTT, pricing the
    # round-trip a real deployment spends asking peers to measure.
    print()
    print("dispatch-charged (entry->prober RTT billed per probe):")
    charged_scenario = scenario.with_(
        daemon=replace(scenario.daemon, charge_dispatch=True)
    )
    charged_results, charged_records = bench_section(charged_scenario, world)
    return {
        "suite": "daemon",
        "scale": scale,
        "seed": seed,
        "scenario": "daemon-steady",
        "n_hosts": int(world.topology.n_nodes),
        "n_queries": scenario.n_queries,
        "ranking_by_tta_median": [
            r.scheme for r in rank_by_time_to_answer(records)
        ],
        "benchmarks": results,
        "ranking_by_tta_median_dispatch_charged": [
            r.scheme for r in rank_by_time_to_answer(charged_records)
        ],
        "dispatch_charged": charged_results,
    }


def check_report(report: dict) -> list[str]:
    """Problems with a report (empty when every gate holds)."""
    problems = []
    if report["suite"] != "daemon":
        problems.append(f"suite is {report['suite']!r}")
    if report["scenario"] != "daemon-steady":
        problems.append(f"scenario is {report['scenario']!r}")
    names = {b["name"] for b in report["benchmarks"]}
    if names != {name for name, _ in SCHEMES}:
        problems.append(f"schemes are {sorted(names)}")
    if set(report["ranking_by_tta_median"]) != names:
        problems.append(f"ranking is {report['ranking_by_tta_median']}")
    for bench in report["benchmarks"]:
        name = bench["name"]
        # Time-to-answer percentiles must be present, positive and
        # ordered; the critical path must span >= 1 probe round.
        if not 0 < bench["tta_median_ms"] <= bench["tta_p95_ms"]:
            problems.append(
                f"{name}: tta median {bench['tta_median_ms']} not in "
                f"(0, p95={bench['tta_p95_ms']}]"
            )
        if not bench["tta_p95_ms"] <= bench["tta_p99_ms"]:
            problems.append(
                f"{name}: tta p95 {bench['tta_p95_ms']} > "
                f"p99 {bench['tta_p99_ms']}"
            )
        rounds = bench["mean_probe_rounds"]
        if rounds < 1.0:
            problems.append(f"{name}: {rounds} probe rounds per query")
        if not bench["simulated_queries_per_sec"] > 0:
            problems.append(f"{name}: no simulated throughput")
        # The single-fan-out baseline answers in exactly one round;
        # multi-round schemes must show deeper critical paths.
        if (name == "random-probe") != (rounds == 1.0):
            problems.append(f"{name}: {rounds} probe rounds per query")
    # Billing the dispatch hop can only slow answers down.
    charged = {b["name"]: b for b in report["dispatch_charged"]}
    if set(charged) != names:
        problems.append(f"dispatch-charged schemes are {sorted(charged)}")
    for bench in report["benchmarks"]:
        name = bench["name"]
        if name in charged and not (
            charged[name]["tta_median_ms"] >= bench["tta_median_ms"]
        ):
            problems.append(
                f"{name}: dispatch-charged tta median "
                f"{charged[name]['tta_median_ms']} < {bench['tta_median_ms']}"
            )
    return problems


if __name__ == "__main__":
    main("daemon", __doc__, run_suite, check_report)
