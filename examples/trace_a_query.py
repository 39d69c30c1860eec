"""Trace one query through a lossy daemon run, end to end.

The observability layer (:mod:`repro.obs`) records per-query spans on
*simulated* time — queue wait, each probe round with its fault tags,
whole-plan retry gaps — without perturbing the run it observes: tracing
consumes zero rng draws, so answers, timings and bills are bit-identical
with it on or off.  This example:

1. runs one daemon trial under packet loss, NAT relays and a regional
   outage with ``DaemonSpec.trace`` enabled;
2. dumps the span stream to a JSONL trace file
   (the ``repro-trace`` console script renders the same file);
3. renders the slowest query's timeline — an ASCII critical-path view
   whose phase durations tile the query's time to answer exactly — then
   the first query the deadline ended, and the run's phase-breakdown
   table.

Run:  python examples/trace_a_query.py
"""

import tempfile
from pathlib import Path

from repro.algorithms import KargerRuhlSearch
from repro.harness import DaemonSpec, FaultSpec, QueryEngine, SamplingSpec
from repro.harness.scenario import TraceSpec
from repro.latency.builder import build_clustered_oracle
from repro.obs.cli import render_summary, render_timeline, slowest_query
from repro.obs.export import dump_trace_jsonl, load_trace_jsonl, validate_trace
from repro.topology.clustered import ClusteredConfig

WORLD = ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2)

#: A genuinely broken network: 10% loss everywhere, 30% of hosts behind
#: NAT relays, and cluster 0 dark for the first 1.5 simulated seconds —
#: enough to exhaust retransmit ladders.  A plan the outage cuts off
#: times out at +700 ms; its retry would start at +800 ms, the deadline,
#: so it does not start and the query ends unanswered.
SPEC = DaemonSpec(
    mean_interarrival_ms=40.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
    mean_event_interval_ms=400.0,
    arrival_rate=0.3,
    departure_rate=0.3,
    faults=FaultSpec(
        base_loss_rate=0.1,
        nat_fraction=0.3,
        outages=((0.0, 1500.0, (0,)),),
        probe_timeout_ms=100.0,
        max_retransmits=2,
        query_retry_ms=100.0,
        deadline_ms=800.0,
    ),
    trace=TraceSpec(),
)


def main() -> None:
    world = build_clustered_oracle(WORLD, seed=99)
    record = QueryEngine().run_daemon_trial(
        world,
        KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
        SPEC,
        sampling=SamplingSpec(n_targets=30),
        n_queries=30,
        seed=5,
    )

    path = Path(tempfile.mkdtemp()) / "daemon-lossy.trace.jsonl"
    dump_trace_jsonl(
        path,
        list(record.spans),
        {"scheme": record.scheme, "n_queries": record.n_queries},
    )
    problems = validate_trace(path)
    print(f"trace written to {path} ({'OK' if not problems else problems})")
    print()

    dump = load_trace_jsonl(path)[0]
    query = slowest_query(dump)
    print(render_timeline(dump, query=query))
    print()
    failed = [int(i) for i in (record.found < 0).nonzero()[0]]
    if failed:
        print(render_timeline(dump, query=failed[0]))
        print()
    print(render_summary([dump]))
    print()
    print(
        f"run totals: {record.total_query_retries} plan retries, "
        f"{len(failed)} queries ended unanswered at their deadline, "
        f"{record.total_probe_retransmits} retransmits, "
        f"{record.total_relayed_probes} relayed probes, "
        f"availability {record.availability:.2f}"
    )


if __name__ == "__main__":
    main()
