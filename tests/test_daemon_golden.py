"""Golden daemon run records: fixed-seed timelines pinned by value.

Each case runs one scheme through :meth:`QueryEngine.run_daemon_trial` at
a fixed seed and compares the resulting :class:`DaemonTrialRecord`
against values stored in ``tests/golden/daemon_records.json``: answers,
probe bills, per-query timelines, load integrals, maintenance ledgers,
fault bills and event-loop counters.  Integer fields must match exactly;
float fields may differ by at most ``FLOAT_RTOL`` relative, which keeps
PIC's LAPACK-backed embedding stable across BLAS builds.

Regenerate (only for a deliberate, documented re-baseline) with::

    PYTHONPATH=src python tests/test_daemon_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    PicSearch,
    RandomProbeSearch,
    TapestrySearch,
    TiersSearch,
    VivaldiGreedySearch,
)
from repro.harness import DaemonSpec, QueryEngine, SamplingSpec, get_scenario
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "daemon_records.json"
FLOAT_RTOL = 1e-9

SMALL = ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2)

CHURN_SPEC = DaemonSpec(
    mean_interarrival_ms=30.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
    mean_event_interval_ms=120.0,
    departure_rate=0.6,
    arrival_rate=0.6,
)

SCHEMES = {
    "random-probe": lambda **kw: RandomProbeSearch(budget=8, **kw),
    "karger-ruhl": lambda **kw: KargerRuhlSearch(
        samples_per_scale=4, max_rounds=12, **kw
    ),
    "tapestry": lambda **kw: TapestrySearch(
        id_digits=4, probe_budget_per_level=8, **kw
    ),
    "tiers": lambda **kw: TiersSearch(branching=8, **kw),
    "meridian": MeridianSearch,
    "beaconing": lambda **kw: BeaconSearch(n_beacons=6, probe_budget=8, **kw),
    "pic": PicSearch,
    "vivaldi-greedy": VivaldiGreedySearch,
}

#: Deferred maintenance disciplines run on the same churn world: the two
#: region-indexed rebuild schemes under every non-eager discipline, and
#: beaconing under ``lazy-partial``, which it runs as ``lazy`` (it has no
#: region index).  The world sees only 4-5 membership events, so
#: ``coalesce:8`` pins the stale-view path and ``coalesce:2`` a coalesced
#: flush.  Case ids read ``churn/<scheme>/<discipline>``.
DEFERRED = {
    "karger-ruhl": ("coalesce:2", "coalesce:8", "lazy", "lazy-partial"),
    "tapestry": ("coalesce:2", "coalesce:8", "lazy", "lazy-partial"),
    "beaconing": ("lazy-partial",),
}

#: Registered fault scenarios pinned at their first world seed.
FAULT_CASES = {
    "daemon-lossy": MeridianSearch,
    "daemon-natted": lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
}

INT_ARRAYS = (
    "targets",
    "found",
    "probes",
    "aux_probes",
    "hops",
    "exact_hit",
    "cluster_hit",
    "membership_size",
    "probe_rounds",
    "maintenance_by_event",
    "probe_drops",
    "probe_retransmits",
    "probe_timeouts",
    "relayed_probes",
    "query_retries",
)
FLOAT_ARRAYS = ("found_latency_ms", "arrival_ms", "start_ms", "finish_ms")
INT_SCALARS = (
    "n_churn_events",
    "maintenance_background_probes",
    "queue_depth_max",
    "in_flight_probes_max",
    "ring_repair_passes",
    "ring_repair_nodes",
    "ring_repair_probes",
    "forced_flushes",
    "loop_events",
    "loop_pending_at_drain",
    "loop_queue_peak",
    "loop_cancelled_events",
)
FLOAT_SCALARS = (
    "makespan_ms",
    "queue_depth_time_avg",
    "in_flight_probes_time_avg",
    "relay_extra_ms",
)

CASES = (
    [f"churn/{name}" for name in SCHEMES]
    + [
        f"churn/{name}/{discipline}"
        for name, disciplines in DEFERRED.items()
        for discipline in disciplines
    ]
    + list(FAULT_CASES)
)


def run_case(case: str):
    """One golden run."""
    engine = QueryEngine()
    if case.startswith("churn/"):
        _, name, *discipline = case.split("/", 2)
        maintenance = {"maintenance": discipline[0]} if discipline else {}
        return engine.run_daemon_trial(
            build_clustered_oracle(SMALL, seed=99),
            SCHEMES[name](**maintenance),
            CHURN_SPEC,
            sampling=SamplingSpec(n_targets=30),
            n_queries=25,
            seed=5,
        )
    scenario = get_scenario(case)
    return engine.run_trial(scenario, FAULT_CASES[case], scenario.world_seeds()[0])


def snapshot(record) -> dict:
    """The record's pinned fields as plain JSON values."""
    out: dict = {}
    for name in INT_ARRAYS:
        value = getattr(record, name)
        out[name] = None if value is None else [int(v) for v in value]
    for name in FLOAT_ARRAYS:
        out[name] = [float(v) for v in getattr(record, name)]
    for name in INT_SCALARS:
        out[name] = int(getattr(record, name))
    for name in FLOAT_SCALARS:
        out[name] = float(getattr(record, name))
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_record_matches_golden(golden, case):
    record = run_case(case)
    expected = golden[case]
    got = snapshot(record)
    for name in INT_ARRAYS + INT_SCALARS:
        assert got[name] == expected[name], name
    for name in FLOAT_ARRAYS + FLOAT_SCALARS:
        np.testing.assert_allclose(
            got[name], expected[name], rtol=FLOAT_RTOL, atol=0.0, err_msg=name
        )


def _write() -> None:
    # One field per line keeps re-baseline diffs readable.
    cases = []
    for case in sorted(CASES):
        fields = snapshot(run_case(case))
        body = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(fields[name])}"
            for name in sorted(fields)
        )
        cases.append(f"{json.dumps(case)}: {{\n{body}\n}}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(cases) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_daemon_golden.py --write")
    _write()
