"""Membership lifecycle walkthrough: join/leave/churn on live algorithms.

The paper evaluates nearest-peer schemes over frozen member sets; this
example drives the dynamic-membership API the repository adds on top:

1. build a scheme, admit a batch of arrivals with :meth:`join`, retire a
   batch with :meth:`leave`, and read the per-event maintenance bill —
   incremental schemes pay per event, rebuild schemes pay the whole
   reconstruction (exactly as their declared ``maintenance_policy`` says);
2. run the registered ``steady-churn`` scenario end to end — a zero-delay
   daemon whose membership process churns between queries — and compare
   schemes under the identical world, event stream and query stream —
   accuracy scored against the membership alive at each query,
   maintenance probes on the bill next to query probes;
3. sweep the maintenance *scheduling disciplines* (eager / coalesce /
   lazy) on the high-event-rate ``churn-lazy-index`` scenario — deferring
   and batching index maintenance cuts a rebuild scheme's bill by the
   coalescing window;
4. run long-running *service mode*: one built algorithm carried warm
   through steady -> surge -> drain daemon phases, one record per phase.

Run:  python examples/churn_lifecycle.py
"""

import numpy as np

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    RandomProbeSearch,
)
from repro.harness import QueryEngine, SamplingSpec, get_scenario
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig


def demonstrate_join_leave() -> None:
    print("=" * 64)
    print("1. The lifecycle API: join / leave with honest maintenance cost")
    print("=" * 64)
    world = build_clustered_oracle(
        ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        seed=7,
    )
    n = world.topology.n_nodes
    initial = np.arange(0, int(0.6 * n))
    arrivals = np.arange(int(0.6 * n), int(0.8 * n))
    target = n - 1  # never a member

    for algorithm in (MeridianSearch(), BeaconSearch(), KargerRuhlSearch(),
                      RandomProbeSearch()):
        algorithm.build(world.oracle, initial, seed=7)
        join_cost = algorithm.join(arrivals, seed=11)
        leave_cost = algorithm.leave(initial[: initial.size // 4], seed=13)
        result = algorithm.query(target, seed=5)
        print(
            f"{algorithm.name:14s} [{algorithm.maintenance_policy:11s}] "
            f"join({arrivals.size})={join_cost:7d} probes   "
            f"leave({initial.size // 4})={leave_cost:7d} probes   "
            f"bill={join_cost + leave_cost:7d}   "
            f"query probes={result.probes}"
        )
    print(
        "=> incremental schemes splice the index per event; rebuild schemes\n"
        "   (karger-ruhl, tapestry) bill the full |M|^2 reconstruction.\n"
    )


def demonstrate_churn_protocol() -> None:
    print("=" * 64)
    print("2. Churn on the daemon: steady-state membership flux")
    print("=" * 64)
    scenario = get_scenario("steady-churn")
    spec = scenario.daemon
    print(
        f"scenario '{scenario.name}': {spec.arrival_rate} joins and "
        f"{spec.departure_rate} leaves expected per membership event, one "
        f"event per {spec.mean_event_interval_ms:.0f} ms, one query per "
        f"{spec.mean_interarrival_ms:.0f} ms, mean session "
        f"{spec.session_length_ms:.0f} ms, {spec.warmup_ms:.0f} ms warmup"
    )
    records = QueryEngine().compare(
        scenario,
        [MeridianSearch, BeaconSearch, lambda: RandomProbeSearch(budget=32)],
    )
    print(f"{'scheme':14s} {'P(exact)':>9s} {'P(cluster)':>11s} "
          f"{'probes/q':>9s} {'maint/q':>9s} {'members~':>9s}")
    for record in records:
        print(
            f"{record.scheme:14s} {record.exact_rate:9.2f} "
            f"{record.cluster_rate:11.2f} "
            f"{record.mean_probes_per_query:9.1f} "
            f"{record.mean_maintenance_probes_per_query:9.1f} "
            f"{record.mean_membership_size:9.0f}"
        )
    print(
        "=> every scheme faced the same arrivals, departures and targets\n"
        "   (common random numbers); correctness is judged against the\n"
        "   members alive at each query, not the build-time set."
    )


def demonstrate_maintenance_disciplines() -> None:
    print("=" * 64)
    print("3. Maintenance scheduling: eager vs coalesce-8 vs lazy")
    print("=" * 64)
    scenario = get_scenario("churn-lazy-index").with_(
        topology=ClusteredConfig(n_clusters=4, end_networks_per_cluster=8, delta=0.2),
        sampling=SamplingSpec(n_targets=10),
        n_queries=25,
    )
    spec = scenario.daemon
    print(
        f"scenario '{scenario.name}': "
        f"~{spec.mean_interarrival_ms / spec.mean_event_interval_ms:.0f} "
        "membership events per query — the sparse-query regime deferred "
        "maintenance is built for"
    )
    for discipline in ("eager", "coalesce:8", "lazy"):
        record = QueryEngine().run_trial(
            scenario, lambda: KargerRuhlSearch(maintenance=discipline), 7
        )
        print(
            f"karger-ruhl [{discipline:10s}] "
            f"maint/event={record.maintenance_probes_per_event:8.1f}  "
            f"total={record.total_maintenance_probes:8d}  "
            f"P(exact)={record.exact_rate:.2f}"
        )
    print(
        "=> the member set updates on every event, but the |M|^2 re-index\n"
        "   fires once per window (coalesce) or once per query (lazy) —\n"
        "   the deferred probes are billed when the flush runs.\n"
    )


def demonstrate_service_mode() -> None:
    print("=" * 64)
    print("4. Service mode: one warm algorithm across operating regimes")
    print("=" * 64)
    scenario = get_scenario("service-mode-restarts").with_(
        topology=ClusteredConfig(n_clusters=4, end_networks_per_cluster=8, delta=0.2),
        sampling=SamplingSpec(n_targets=10),
    )
    result = QueryEngine().run_scenario(scenario, BeaconSearch)
    print(f"{'phase':8s} {'P(exact)':>9s} {'maint/q':>9s} {'members~':>9s}")
    for record in result.records:
        print(
            f"{record.phase:8s} {record.exact_rate:9.2f} "
            f"{record.mean_maintenance_probes_per_query:9.1f} "
            f"{record.mean_membership_size:9.0f}"
        )
    print(
        "=> the index, standby pool, session timers and rng streams all\n"
        "   survive the phase boundaries (warm restarts, no rebuild);\n"
        "   each phase is scored and billed as its own record."
    )


if __name__ == "__main__":
    demonstrate_join_leave()
    demonstrate_churn_protocol()
    demonstrate_maintenance_disciplines()
    demonstrate_service_mode()
