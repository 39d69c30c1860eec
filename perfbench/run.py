"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix-2k --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # each in its own process

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's full passes (world build, every scheme's build, daemon
serving, scoring), each on its own traffic seed, then the set-up phase
alone, repeated until ``--seconds`` have elapsed (at least three
set-ups in all); ``setup_s`` is their median.  ``--trace 1`` runs a
set-up-only warm-up, then the first pass untraced and traced, and
reports the per-layer metrics; the two must produce the same
``sim_digest``.

Each pass is checked (ledger conservation, drops = retransmits +
timeouts, a drained event loop, credited answers live by the join/leave
calls the algorithm received); the process exits 1 when a check fails.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
also appends the full record (manifest, digest, checks, metrics) to FILE
for ``perfbench/diff.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3


def _load() -> bool:
    """Put the program and the benchmark on the import path, if present."""
    if not (SRC / "repro").is_dir():
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    return True


def run_pass(workload, seed: int, *, traced: bool, n_queries: int | None = None):
    """One world build plus one ``QueryEngine.compare`` over every scheme."""
    import numpy as np
    from repro.harness import QueryEngine

    from perfbench.checks import MembershipWitness, SchemeRun
    from perfbench.layers import (
        Meter,
        coarse,
        proxied_world,
        time_build,
        trace_algorithm,
        traced_coords,
    )

    scenario = workload.seeded(seed)
    if n_queries is not None:
        scenario = scenario.with_(n_queries=n_queries)
    meter = Meter()
    algorithms = []
    witnesses = []

    def factory(spec):
        algorithm = spec.make()
        witnesses.append(MembershipWitness(algorithm, lambda: meter.serving.loop.now))
        time_build(meter, algorithm)
        if traced:
            trace_algorithm(meter, algorithm)
        algorithms.append(algorithm)
        return algorithm

    start = time.perf_counter()
    with coarse(meter), traced_coords(meter) if traced else nullcontext():
        world = meter.call("topology.world", workload.build_world)
        if traced:
            world = proxied_world(world, meter)
        records = meter.call(
            "harness.self",
            QueryEngine(workers=1).compare,
            scenario,
            [lambda spec=spec: factory(spec) for spec in workload.schemes],
            world=world,
        )
    wall = time.perf_counter() - start
    meter.self_s["bench.unattributed"] = wall - sum(meter.self_s.values())
    runs = [
        SchemeRun(
            record=record,
            live=witness.live(
                np.array([job.start_ms for job in daemon_run.jobs]),
                record.found,
                int(algorithm.oracle.n_nodes),
            ),
            maintenance_total=int(algorithm.maintenance_probes_total),
        )
        for record, daemon_run, algorithm, witness in zip(
            records, meter.daemon_runs, algorithms, witnesses
        )
    ]
    rebuilds = sum(int(a.rebuild_count) for a in algorithms)
    return Pass(wall, meter, runs, rebuilds)


@dataclass
class Pass:
    """One full pass: wall time, its meter, the checked runs."""

    wall: float
    meter: object
    runs: list
    #: Sum of the schemes' ``rebuild_count``.
    rebuilds: int

    @property
    def setup_s(self) -> float:
        """World build plus every scheme's build."""
        total = self.meter.total_s
        return total.get("topology.world", 0.0) + total.get("algorithms.build", 0.0)


def manifest(workload, seed: int) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "workload": workload.name,
        "spec_digest": workload.spec_digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the full result record."""
    from perfbench import checks, metrics

    began = time.perf_counter()
    seeds = [seed * workload.passes + i for i in range(workload.passes)]
    if trace:
        # Warm the allocator and lazy imports first, so the untraced and
        # traced passes that trace_overhead compares start alike.
        run_pass(workload, seeds[0], traced=False, n_queries=1)
        seeds = seeds[:1]
    passes = []
    for s in seeds:
        passes.append(run_pass(workload, s, traced=False))
        gc.collect()  # reference cycles hold the pass's world until collected
        if len(passes) == 1:
            # Later passes build on a heap the earlier ones fragmented, so
            # their high-water mark depends on the seed; the first's does not.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [run for p in passes for run in p.runs]
    result = {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "manifest": manifest(workload, seed),
        "sim_digest": checks.sim_digest(runs),
        "checks": checks.check_runs(runs),
        "attempted": sum(run.record.n_queries for run in runs),
        "failed": sum(int(run.failed.sum()) for run in runs),
        "tta_ms": metrics.tta_percentiles(runs, (50, 95, 99)),
    }
    if trace:
        traced = run_pass(workload, seeds[0], traced=True)
        result["traced_sim_digest"] = checks.sim_digest(traced.runs)
        result["checks_traced"] = checks.check_runs(traced.runs)
        result["metrics"] = metrics.per_layer(traced, untraced_wall=passes[0].wall)
    else:
        setups = [p.setup_s for p in passes]
        result["metrics"] = metrics.end_to_end(passes, peak_rss_mb=rss_mb)
        del passes, runs  # set-up repeats must not hold a second world
        gc.collect()
        while len(setups) < MIN_SETUPS or time.perf_counter() - began < seconds:
            setups.append(run_pass(workload, seed, traced=False, n_queries=1).setup_s)
        result["setup_samples_s"] = setups
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    failed_checks = [
        check
        for label in ("checks", "checks_traced")
        for check, schemes in result.get(label, {}).items()
        if schemes
    ]
    digests_agree = result.get("traced_sim_digest") in (None, result["sim_digest"])
    result["correct"] = digests_agree and not failed_checks
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"workload {name}  seed {result['manifest']['seed']}  "
          f"sim_digest {result['sim_digest']}")
    if "traced_sim_digest" in result:
        print(f"  traced sim_digest {result['traced_sim_digest']}")
    for label in ("checks", "checks_traced"):
        for check, bad in result.get(label, {}).items():
            verdict = "ok" if not bad else "FAILED: " + ", ".join(bad)
            print(f"  check {check}: {verdict}")
    n = result["attempted"]
    tails = ", ".join(
        f"p{q} {value:.1f} ms ({n - int(float(q) / 100 * n)} beyond)"
        for q, value in result["tta_ms"].items()
    )
    print(f"  time to answer over {n} pooled queries: {tails}")
    if result["trace"] == 0:
        print("  setup samples (s): " + " ".join(
            f"{s:.3f}" for s in result["setup_samples_s"]))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record here")
    args = parser.parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy loads: the benchmark is single-threaded.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not _load():
        print(f"error: the program sources ({SRC / 'repro'}) are missing",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    report(result)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
