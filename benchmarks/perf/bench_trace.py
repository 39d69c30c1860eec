"""Trace-overhead benchmark: the observability layer must be passive and cheap.

Runs the registered ``daemon-steady`` scenario for the same three schemes
as :mod:`bench_daemon` — ``random-probe``, ``beaconing``, ``meridian`` —
twice per scheme: tracing off (the default ``DaemonSpec``) and tracing on
(``trace=TraceSpec()``).  It reports

* ``identical`` — whether the traced run reproduced the untraced run's
  answers, probe bills and per-query timeline bit-for-bit (the passivity
  guarantee: tracing may never perturb the simulation it observes);
* ``added_calls_per_query`` — the calls (Python and builtin, as
  ``cProfile`` counts them) that tracing adds per query: one warmed
  untraced and one warmed traced trial per scheme run under the
  profiler.  The count repeats exactly run to run, so it gates where a
  wall-clock ratio would flip on noise; ``--check`` holds the total at
  ``MAX_ADDED_CALLS_PER_QUERY``;
* ``overhead_ratio`` — best-of wall-clock of the traced arm over the
  untraced arm, per scheme and in total, reported but not gated.  Each
  scheme runs at least ``--reps`` interleaved pairs (off, on, off, ...),
  and more until its untraced arm has run ``MIN_ARM_S`` (1 s);
* ``n_spans`` / ``trace_problems`` — the traced runs' span streams are
  dumped to a multi-block JSONL file and schema-validated, so the export
  path is exercised on every benchmark run.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_trace.py \
        --scale paper --output BENCH_trace.json

``--scale tiny`` is the CI smoke setting; ``--scale paper`` raises the
query count on the same world for a steadier ratio.  ``--check``
validates the report it just wrote and exits 1 when a gate fails: the
scheme set, passivity for every scheme, a schema-valid non-empty span
stream, and at most ``MAX_ADDED_CALLS_PER_QUERY`` calls added per query.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import replace
from pathlib import Path

import numpy as np

from driver import build_world, main, timed_trial
from repro.algorithms import BeaconSearch, MeridianSearch, RandomProbeSearch
from repro.harness import TraceSpec, get_scenario
from repro.obs.export import dump_trace_jsonl, validate_trace

SCHEMES = (
    ("random-probe", lambda: RandomProbeSearch(budget=32)),
    ("beaconing", BeaconSearch),
    ("meridian", MeridianSearch),
)


def trace_scenario(scale: str):
    """The daemon-steady scenario at a query count that steadies the ratio."""
    base = get_scenario("daemon-steady")
    return base.with_(n_queries=250 if scale == "tiny" else 1000, trials=1)


def counted_calls(factory, scenario, world) -> int:
    """Calls one daemon trial makes, as ``cProfile`` counts them."""
    profiler = cProfile.Profile()
    profiler.runcall(timed_trial, factory(), scenario, world)
    return pstats.Stats(profiler).total_calls


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
    traced = scenario.with_(daemon=replace(scenario.daemon, trace=TraceSpec()))
    best_off = float("inf")
    best_on = float("inf")
    pairs = 0
    spent_off = 0.0
    while pairs < reps or spent_off < MIN_ARM_S:
        record_off, wall_off = timed_trial(factory(), scenario, world)
        record_on, wall_on = timed_trial(factory(), traced, world)
        best_off = min(best_off, wall_off)
        best_on = min(best_on, wall_on)
        pairs += 1
        spent_off += wall_off
    identical = records_identical(record_off, record_on)
    # The timed pairs have warmed every cache (the first untraced trial
    # makes more calls than any later one), so these counts repeat.
    calls_off = counted_calls(factory, scenario, world)
    calls_on = counted_calls(factory, traced, world)
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
    added = (calls_on - calls_off) / record_on.n_queries
    print(
        f"{name}: off={best_off * 1e3:.0f}ms on={best_on * 1e3:.0f}ms "
        f"ratio={ratio:.3f}  calls off={calls_off} on={calls_on} "
        f"(+{added:.1f}/query)  spans={len(record_on.spans)}  "
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
        "calls_off": calls_off,
        "calls_on": calls_on,
        "added_calls_per_query": added,
        "n_spans": len(record_on.spans),
        "tta_median_ms": record_on.tta_median_ms,
    }


def run_suite(args) -> dict:
    scale, seed, reps = args.scale, args.seed, args.reps
    trace_path = args.trace_output or args.output.with_suffix(".trace.jsonl")
    scenario = trace_scenario(scale).with_(seed=seed)
    world = build_world(scenario)
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
    added = sum(r["calls_on"] - r["calls_off"] for r in results) / sum(
        r["n_queries"] for r in results
    )
    print(
        f"\ntotal: off={total_off * 1e3:.0f}ms on={total_on * 1e3:.0f}ms "
        f"ratio={total_ratio:.3f}  +{added:.1f} calls/query  "
        f"trace file: {trace_path} ({'OK' if not problems else problems})"
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
        "added_calls_per_query": added,
        "trace_file": str(trace_path),
        "trace_problems": problems,
        "benchmarks": results,
    }


#: Tracing may add at most this many calls per query across the three
#: schemes (40.0 with every child span emitted once; 50.0 with each
#: emitted twice).
MAX_ADDED_CALLS_PER_QUERY = 44


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
    if not report["added_calls_per_query"] <= MAX_ADDED_CALLS_PER_QUERY:
        problems.append(
            f"tracing adds {report['added_calls_per_query']:.1f} calls per "
            f"query > {MAX_ADDED_CALLS_PER_QUERY}"
        )
    return problems


def add_arguments(parser) -> None:
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
        "--trace-output",
        type=Path,
        default=None,
        help="where to write the traced runs' JSONL span streams",
    )


if __name__ == "__main__":
    main("trace", __doc__, run_suite, check_report, add_arguments=add_arguments)
