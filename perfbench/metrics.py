"""How each metric is computed from one pass.

The names and units come from ``BENCHMARK.json``; a name listed there
and not computed here is a ``KeyError``.  The ``sim_*`` metrics are
deterministic for a seed; the host metrics carry all the run-to-run
noise.
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench import SPEC
from perfbench.layers import BUCKETS

END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]


def _entries(spec, values: dict) -> dict:
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
    }


def _pooled(runs, attr: str) -> np.ndarray:
    return np.concatenate([getattr(run.record, attr) for run in runs])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tta_percentiles(runs, percentiles) -> dict:
    """Pooled simulated time-to-answer percentiles, keyed by percentile."""
    tta = _pooled(runs, "time_to_answer_ms")
    return {str(q): float(np.percentile(tta, q)) for q in percentiles}


def end_to_end(passes, peak_rss_mb: float) -> dict:
    """The user-facing metrics of a run's untraced full passes, pooled."""
    runs = [run for p in passes for run in p.runs]
    n = sum(run.record.n_queries for run in runs)
    tta = _pooled(runs, "time_to_answer_ms")
    probes = sum(
        run.record.total_probes + int(run.record.aux_probes.sum()) for run in runs
    )
    failed = sum(int(run.failed.sum()) for run in runs)
    return _entries(END_TO_END, {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "serve_qps": n / sum(p.meter.total_s["service"] for p in passes),
        "run_s": sum(p.wall for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "sim_tta_p50_ms": np.percentile(tta, 50),
        "sim_tta_p95_ms": np.percentile(tta, 95),
        "sim_cluster_rate": _pooled(runs, "cluster_hit").mean(),
        "sim_probes_per_query": probes / n,
        "sim_rounds_per_query": _pooled(runs, "probe_rounds").mean(),
        "sim_answer_share": 1.0 - failed / n,
    })


def per_layer(traced, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced full pass."""
    meter = traced.meter
    own = meter.self_s
    calls = meter.calls
    records = [run.record for run in traced.runs]
    n = sum(r.n_queries for r in records)
    query_probes = sum(r.total_probes for r in records)
    retransmits = sum(r.total_probe_retransmits for r in records)
    pairs = meter.counts.get("oracle_pairs", 0)
    plan_steps = calls.get("algorithms.plan", 0)
    loop_events = sum(r.loop_events for r in records)
    events = sum(r.n_churn_events for r in records)
    values = {
        "topology.world_build_s": own["topology.world"],
        "topology.oracle_calls": calls.get("topology.oracle", 0),
        "topology.oracle_pairs": pairs,
        "topology.oracle_s": own["topology.oracle"],
        "topology.ns_per_pair": _ratio(own["topology.oracle"] * 1e9, pairs),
        "algorithms.build_s": own["algorithms.build"],
        "algorithms.plan_steps": plan_steps,
        "algorithms.plan_self_s": own["algorithms.plan"],
        "algorithms.us_per_plan_step": _ratio(own["algorithms.plan"] * 1e6, plan_steps),
        "algorithms.exact_per_kprobe": _ratio(
            1000.0 * sum(int(r.exact_hit.sum()) for r in records), query_probes
        ),
        "algorithms.maint_calls": calls.get("algorithms.maint", 0),
        "algorithms.maint_self_s": own["algorithms.maint"],
        "algorithms.rebuilds": traced.rebuilds,
        "algorithms.maint_probes": sum(run.maintenance_total for run in traced.runs),
        "algorithms.maint_probes_per_event": _ratio(
            sum(int(r.maintenance_by_event.sum()) for r in records), events
        ),
        "coords.calls": calls.get("coords", 0),
        "coords.self_s": own["coords"],
        "meridian.repair_calls": calls.get("meridian", 0),
        "meridian.repair_self_s": own["meridian"],
        "meridian.repair_probes": sum(r.ring_repair_probes for r in records),
        "service.self_s": own["service"],
        "service.loop_events": loop_events,
        "service.us_per_loop_event": _ratio(own["service"] * 1e6, loop_events),
        "service.queue_wait_p50_ms": np.median(
            np.concatenate([r.queue_wait_ms for r in records])
        ),
        "service.queue_depth_max": max(r.queue_depth_max for r in records),
        "service.retries_per_query": sum(r.total_query_retries for r in records) / n,
        "netsim.loop_queue_peak": max(r.loop_queue_peak for r in records),
        "netsim.cancelled_events": sum(r.loop_cancelled_events for r in records),
        "netsim.drop_share": _ratio(
            sum(r.total_probe_drops for r in records), query_probes + retransmits
        ),
        "netsim.retransmits": retransmits,
        "netsim.timeouts": sum(r.total_probe_timeouts for r in records),
        "harness.score_s": own["harness.score"],
        "harness.score_us_per_query": own["harness.score"] * 1e6 / n,
        "harness.self_s": own["harness.self"],
        "bench.unattributed_s": own["bench.unattributed"],
        "bench.trace_overhead": traced.wall / untraced_wall,
    }
    for bucket in BUCKETS:
        values[f"share.{bucket}"] = own[bucket] / traced.wall
    return _entries(PER_LAYER, values)
