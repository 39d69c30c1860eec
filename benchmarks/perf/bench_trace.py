"""Trace-overhead benchmark: the observability layer must be passive and cheap.

Runs the registered ``daemon-steady`` scenario for the same three schemes
as :mod:`bench_daemon` — ``random-probe``, ``beaconing``, ``meridian`` —
twice per scheme: tracing off (the default ``DaemonSpec``) and tracing on
(``trace=TraceSpec()``).  It reports

* ``identical`` — whether the traced run reproduced the untraced run's
  answers, probe bills and per-query timeline bit-for-bit (the passivity
  guarantee: tracing may never perturb the simulation it observes);
* ``overhead_ratio`` — best-of wall-clock of the traced arm over the
  untraced arm, per scheme and in total.  Each scheme runs at least
  ``--reps`` interleaved pairs, and more until its untraced arm has run
  ``MIN_ARM_S`` (1 s), so each best-of is taken over 10–40 trials of
  30–90 ms rather than seven.  The CI smoke gates the total at 1.15x;
* ``n_spans`` / ``trace_problems`` — the traced runs' span streams are
  dumped to a multi-block JSONL file and schema-validated, so the export
  path is exercised on every benchmark run.

Arms are interleaved (off, on, off, on, ...) and scored best-of so a
noisy neighbour inflates both arms rather than one side of the ratio.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_trace.py \
        --scale paper --output BENCH_trace.json

``--scale tiny`` is the CI smoke setting; ``--scale paper`` raises the
query count on the same world for a steadier ratio.  ``--check``
validates the report it just wrote and exits 1 when a gate fails: the
scheme set, passivity for every scheme, a schema-valid non-empty span
stream, and a total overhead ratio of at most 1.15.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.algorithms import BeaconSearch, MeridianSearch, RandomProbeSearch
from repro.harness import QueryEngine, TraceSpec, get_scenario
from repro.latency.builder import build_clustered_oracle
from repro.obs.export import dump_trace_jsonl, validate_trace

SCALES = ("tiny", "paper")

SCHEMES = (
    ("random-probe", lambda: RandomProbeSearch(budget=32)),
    ("beaconing", BeaconSearch),
    ("meridian", MeridianSearch),
)


def trace_scenario(scale: str):
    """The daemon-steady scenario at a query count that steadies the ratio."""
    base = get_scenario("daemon-steady")
    return base.with_(n_queries=250 if scale == "tiny" else 1000, trials=1)


def run_arm(scenario, world, factory, traced: bool):
    """One timed daemon trial; returns (record, wall_seconds)."""
    spec = scenario.daemon
    if traced:
        spec = replace(spec, trace=TraceSpec())
    engine = QueryEngine()
    start = time.perf_counter()
    record = engine.run_daemon_trial(
        world,
        factory(),
        spec,
        sampling=scenario.sampling,
        n_queries=scenario.n_queries,
        seed=scenario.seed,
        noise=scenario.noise,
    )
    return record, time.perf_counter() - start


def records_identical(off, on) -> bool:
    """The passivity check: traced and untraced runs must agree exactly."""
    return (
        np.array_equal(off.found, on.found)
        and np.array_equal(off.probes, on.probes)
        and np.array_equal(off.arrival_ms, on.arrival_ms)
        and np.array_equal(off.start_ms, on.start_ms)
        and np.array_equal(off.finish_ms, on.finish_ms)
        and off.makespan_ms == on.makespan_ms
        and off.total_maintenance_probes == on.total_maintenance_probes
    )


#: Untraced wall-clock each scheme runs for, at least, before the best-of
#: scores are taken.
MIN_ARM_S = 1.0


def bench_scheme(name, factory, scenario, world, reps: int, trace_path: Path, first: bool) -> dict:
    best_off = float("inf")
    best_on = float("inf")
    record_off = record_on = None
    pairs = 0
    spent_off = 0.0
    while pairs < reps or spent_off < MIN_ARM_S:
        off, wall_off = run_arm(scenario, world, factory, traced=False)
        on, wall_on = run_arm(scenario, world, factory, traced=True)
        best_off = min(best_off, wall_off)
        best_on = min(best_on, wall_on)
        record_off, record_on = off, on
        pairs += 1
        spent_off += wall_off
    identical = records_identical(record_off, record_on)
    dump_trace_jsonl(
        trace_path,
        record_on.spans,
        meta={
            "scheme": name,
            "n_queries": record_on.n_queries,
            "scenario": "daemon-steady",
            "seed": scenario.seed,
        },
        mode="w" if first else "a",
    )
    ratio = best_on / best_off
    print(
        f"{name}: off={best_off * 1e3:.0f}ms on={best_on * 1e3:.0f}ms "
        f"ratio={ratio:.3f}  spans={len(record_on.spans)}  "
        f"identical={identical}  pairs={pairs}"
    )
    return {
        "name": name,
        "n_queries": record_on.n_queries,
        "identical": identical,
        "pairs": pairs,
        "wall_off_s": best_off,
        "wall_on_s": best_on,
        "overhead_ratio": ratio,
        "n_spans": len(record_on.spans),
        "tta_median_ms": record_on.tta_median_ms,
    }


def run_suite(scale: str, seed: int, reps: int, trace_path: Path) -> dict:
    scenario = trace_scenario(scale).with_(seed=seed)
    world = build_clustered_oracle(
        scenario.topology, seed=seed, core_pool_size=scenario.core_pool_size
    )
    results = []
    for i, (name, factory) in enumerate(SCHEMES):
        results.append(
            bench_scheme(
                name, factory, scenario, world, reps, trace_path, first=i == 0
            )
        )
    problems = validate_trace(trace_path)
    total_off = sum(r["wall_off_s"] for r in results)
    total_on = sum(r["wall_on_s"] for r in results)
    total_ratio = total_on / total_off
    print(
        f"\ntotal: off={total_off * 1e3:.0f}ms on={total_on * 1e3:.0f}ms "
        f"ratio={total_ratio:.3f}  trace file: {trace_path} "
        f"({'OK' if not problems else problems})"
    )
    return {
        "suite": "trace",
        "scale": scale,
        "seed": seed,
        "reps": reps,
        "scenario": "daemon-steady",
        "n_queries": scenario.n_queries,
        "all_identical": all(r["identical"] for r in results),
        "total_overhead_ratio": total_ratio,
        "trace_file": str(trace_path),
        "trace_problems": problems,
        "benchmarks": results,
    }


#: Zero-overhead-by-default budget: tracing may cost at most 15% wall
#: clock across the three schemes (best-of-reps, interleaved arms, so
#: noise hits both sides).
MAX_OVERHEAD_RATIO = 1.15


def check_report(report: dict) -> list[str]:
    """Problems with a report (empty when every gate holds)."""
    problems = []
    if report["suite"] != "trace":
        problems.append(f"suite is {report['suite']!r}")
    if report["scenario"] != "daemon-steady":
        problems.append(f"scenario is {report['scenario']!r}")
    names = {b["name"] for b in report["benchmarks"]}
    if names != {name for name, _ in SCHEMES}:
        problems.append(f"schemes are {sorted(names)}")
    # Passivity: the traced arm reproduced the untraced arm's answers,
    # bills and timelines bit for bit, for every scheme.
    if report["all_identical"] is not True:
        problems.append("traced and untraced runs differ")
    # The span streams schema-validated.
    if report["trace_problems"]:
        problems.append(f"trace problems: {report['trace_problems']}")
    for bench in report["benchmarks"]:
        if bench["identical"] is not True:
            problems.append(f"{bench['name']}: traced run differs")
        if not bench["n_spans"] > 0:
            problems.append(f"{bench['name']}: no spans")
    if not report["total_overhead_ratio"] <= MAX_OVERHEAD_RATIO:
        problems.append(
            f"tracing overhead {report['total_overhead_ratio']:.3f}x > "
            f"{MAX_OVERHEAD_RATIO}x"
        )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument(
        "--reps",
        type=int,
        default=7,
        help=(
            "fewest interleaved repetitions per arm (best-of scoring); more "
            "run until the untraced arm has taken MIN_ARM_S"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: BENCH_trace.json for "
            "--scale paper, bench_trace_<scale>.json otherwise, so a casual "
            "tiny run cannot clobber the committed paper baseline)"
        ),
    )
    parser.add_argument(
        "--trace-output",
        type=Path,
        default=None,
        help="where to write the traced runs' JSONL span streams",
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
            Path("BENCH_trace.json")
            if args.scale == "paper"
            else Path(f"bench_trace_{args.scale}.json")
        )
    trace_path = args.trace_output
    if trace_path is None:
        trace_path = output.with_suffix(".trace.jsonl")
    report = run_suite(args.scale, args.seed, args.reps, trace_path)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        if problems:
            sys.exit(1)
        print(
            "trace smoke OK:",
            sorted(b["name"] for b in report["benchmarks"]),
            f"overhead {report['total_overhead_ratio']:.3f}x",
        )


if __name__ == "__main__":
    main()
