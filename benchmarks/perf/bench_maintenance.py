"""Partial-freshness benchmark: full-flush vs region-touch maintenance.

Runs the ``steady-churn`` workload (a zero-delay churn daemon) for the
two rebuild-policy schemes
that support partial freshness (karger-ruhl's sampled ball hierarchy,
tapestry's prefix-routing neighborhoods) under both lazy disciplines:

* ``lazy`` — the classic full flush: the first query after a batch of
  buffered membership events pays one full |M|-region reconstruction;
* ``lazy-partial`` — the partial-freshness path: a query refreshes only
  the regions its descent actually reads, billed exactly against the
  buffered events through the algorithm's per-event ledger.

Both arms replay the identical world, event schedule and query targets
(common random numbers), and the region-keyed reconstruction guarantees
**bit-identical answers** — the report asserts the found-peer, latency
and query-probe arrays match element for element before computing the
maintenance savings ratio.  Per scheme the report carries each arm's
total/mean maintenance probes, per-event ledger mean and wall-clock,
plus the headline ``full_over_partial`` probe ratio (the acceptance
floor is 5x at paper scale, 3x at the CI smoke scale).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_maintenance.py \
        --scale paper --output BENCH_maintenance.json

``--scale tiny`` is the CI smoke setting (the registered scenario's own
240-host world, trimmed query count); ``--scale paper`` is the committed
baseline at n=2000 hosts.  ``--check`` validates the report it just wrote
and exits 1 when a gate fails: the scheme and arm sets, bit-identical
answers, a ``full_over_partial`` ratio of at least
``MIN_FULL_OVER_PARTIAL`` and no full rebuild on the partial arm.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from driver import build_world, main, paper_scale, timed_trial
from repro.algorithms import KargerRuhlSearch, TapestrySearch
from repro.harness import get_scenario
from repro.harness.scenario import CHURN_STEP_MS

#: The region-indexed schemes (``RegionIndexedSearch``), which refresh
#: only touched regions under ``lazy-partial``.
SCHEMES = (
    ("karger-ruhl", KargerRuhlSearch),
    ("tapestry", TapestrySearch),
)

#: Full-flush baseline first, partial-freshness challenger second.
DISCIPLINES = ("lazy", "lazy-partial")

#: Partial freshness must be a pure win: at least this many times fewer
#: maintenance probes even at the touch-dense smoke scale (the committed
#: paper baseline holds >= 5x at n=2000).
MIN_FULL_OVER_PARTIAL = 3.0


def maintenance_scenario(scale: str):
    """Touch-sparse steady churn: few regions read per query."""
    base = get_scenario("steady-churn")
    if scale == "tiny":
        return base.with_(
            n_queries=12,
            trials=1,
            daemon=replace(base.daemon, warmup_ms=5 * CHURN_STEP_MS),
        )
    # Paper scale: n = 2000 hosts.  Each query's descent touches
    # O(log n) regions out of ~1600 live members, so the per-query refresh
    # is far sparser than tiny's.
    return paper_scale(base, n_queries=60, churn=True)


def bench_arm(factory, discipline: str, scenario, world) -> tuple[dict, object]:
    """One (scheme, discipline) trial; returns (report row, record)."""
    algorithm = factory(maintenance=discipline)
    record, elapsed = timed_trial(algorithm, scenario, world)
    row = {
        "discipline": discipline,
        "n_queries": record.n_queries,
        "n_events": record.n_churn_events,
        "trial_s": elapsed,
        "queries_per_sec": record.n_queries / elapsed,
        "total_maintenance_probes": record.total_maintenance_probes,
        "mean_maintenance_probes_per_query": (
            record.mean_maintenance_probes_per_query
        ),
        "maintenance_probes_per_event": record.maintenance_probes_per_event,
        "rebuilds": int(algorithm.rebuild_count),
        "exact_rate": record.exact_rate,
    }
    return row, record


def answers_identical(a, b) -> bool:
    """Element-for-element equality of the two arms' query answers."""
    return (
        bool(np.array_equal(a.found, b.found))
        and bool(np.array_equal(a.found_latency_ms, b.found_latency_ms))
        and bool(np.array_equal(a.probes, b.probes))
    )


def run_suite(args) -> dict:
    scale, seed = args.scale, args.seed
    scenario = maintenance_scenario(scale).with_(seed=seed)
    world = build_world(scenario)
    schemes = []
    for name, factory in SCHEMES:
        rows, records = [], {}
        for discipline in DISCIPLINES:
            row, record = bench_arm(factory, discipline, scenario, world)
            records[discipline] = record
            print(
                f"{name} [{discipline}]: "
                f"maint total={row['total_maintenance_probes']}  "
                f"maint/q={row['mean_maintenance_probes_per_query']:.0f}  "
                f"rebuilds={row['rebuilds']}  "
                f"exact={row['exact_rate']:.2f}  {row['trial_s']:.1f}s"
            )
            rows.append(row)
        identical = answers_identical(
            records["lazy"], records["lazy-partial"]
        )
        partial_total = rows[1]["total_maintenance_probes"]
        ratio = (
            rows[0]["total_maintenance_probes"] / partial_total
            if partial_total > 0
            else float("inf")
        )
        speedup = rows[0]["trial_s"] / rows[1]["trial_s"]
        print(
            f"{name}: full/partial maintenance ratio {ratio:.1f}x, "
            f"wall-clock speedup {speedup:.1f}x, "
            f"answers identical: {identical}"
        )
        schemes.append(
            {
                "name": name,
                "arms": rows,
                "full_over_partial": ratio,
                "wall_clock_speedup": speedup,
                "answers_identical": identical,
            }
        )
    return {
        "suite": "maintenance",
        "scale": scale,
        "seed": seed,
        "scenario": "steady-churn",
        "n_hosts": int(world.topology.n_nodes),
        "schemes": schemes,
    }


def check_report(report: dict) -> list[str]:
    """Problems with a report (empty when every gate holds)."""
    problems = []
    if report["suite"] != "maintenance":
        problems.append(f"suite is {report['suite']!r}")
    if report["scenario"] != "steady-churn":
        problems.append(f"scenario is {report['scenario']!r}")
    names = {s["name"] for s in report["schemes"]}
    if names != {name for name, _ in SCHEMES}:
        problems.append(f"schemes are {sorted(names)}")
    for scheme in report["schemes"]:
        name = scheme["name"]
        disciplines = [a["discipline"] for a in scheme["arms"]]
        if disciplines != list(DISCIPLINES):
            problems.append(f"{name}: arms {disciplines}")
            continue
        if scheme["answers_identical"] is not True:
            problems.append(f"{name}: answers differ between the arms")
        ratio = scheme["full_over_partial"]
        if not ratio >= MIN_FULL_OVER_PARTIAL:
            problems.append(
                f"{name}: full/partial {ratio:.2f}x < {MIN_FULL_OVER_PARTIAL}x"
            )
        full, partial = scheme["arms"]
        if full["total_maintenance_probes"] <= 0:
            problems.append(f"{name}: the full-flush arm billed nothing")
        if partial["total_maintenance_probes"] <= 0:
            problems.append(f"{name}: the partial arm billed nothing")
        if partial["rebuilds"] != 0:
            problems.append(f"{name}: {partial['rebuilds']} partial rebuilds")
    return problems


if __name__ == "__main__":
    main("maintenance", __doc__, run_suite, check_report)
