"""The benchmark's own tests: tiny variants of each workload through the
same code path as the real runs, the output checks on doctored records,
and the result-file diff.

The file name keeps it out of the repository's default test collection;
run it from the repository root with::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, diff, layers, metrics, run, workloads

ROOT = Path(__file__).resolve().parent.parent
TINY = {name: w.tiny() for name, w in workloads.WORKLOADS.items()}


@pytest.fixture(scope="module", params=sorted(TINY))
def results(request):
    """Untraced and traced results of one tiny workload (seed 0)."""
    workload = TINY[request.param]
    return (
        run.measure(workload, 0, seconds=0.0, trace=False),
        run.measure(workload, 0, seconds=0.0, trace=True),
    )


def test_every_metric_emitted_with_its_unit(results):
    untraced, traced = results
    for result, spec in ((untraced, metrics.END_TO_END),
                         (traced, metrics.PER_LAYER)):
        assert result["correct"], result["checks"]
        assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
            (m["name"], m["unit"]) for m in spec
        ]
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert len(untraced["setup_samples_s"]) == run.MIN_SETUPS
    assert untraced["attempted"] >= 1


def test_traced_pass_is_passive(results):
    untraced, traced = results
    first_pass = run.run_pass(TINY[untraced["workload"][:-len("-tiny")]], 0, traced=False)
    assert traced["traced_sim_digest"] == traced["sim_digest"] == checks.sim_digest(
        first_pass.runs
    )
    assert untraced["attempted"] == 2 * traced["attempted"]  # two passes
    # The self-time buckets tile the traced pass.
    shares = [v["value"] for k, v in traced["metrics"].items()
              if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)


def test_seed_selects_the_inputs():
    workload = TINY["lossy-sparse-100k"]
    digests = {
        checks.sim_digest(run.run_pass(workload, seed, traced=False).runs)
        for seed in (0, 0, 1)
    }
    assert len(digests) == 2


@pytest.fixture(scope="module")
def lossy_runs():
    runs = run.run_pass(TINY["lossy-sparse-100k"], 0, traced=False).runs
    assert not any(checks.check_runs(runs).values())
    return runs


def _doctor_record(runs, **changes):
    first = runs[0]
    return [replace(first, record=replace(first.record, **changes)), *runs[1:]]


def test_ledger_check_fires(lossy_runs):
    record = lossy_runs[0].record
    doctored = _doctor_record(
        lossy_runs,
        maintenance_background_probes=record.maintenance_background_probes + 1,
    )
    assert checks.check_runs(doctored)["ledger_conservation"]


def test_drop_check_fires_on_a_removed_retransmit(lossy_runs):
    retransmits = lossy_runs[0].record.probe_retransmits.copy()
    i = int(np.argmax(retransmits))
    assert retransmits[i] > 0
    retransmits[i] -= 1
    doctored = _doctor_record(lossy_runs, probe_retransmits=retransmits)
    assert checks.check_runs(doctored)["drops_eq_retransmits_plus_timeouts"]


def test_drain_check_fires(lossy_runs):
    doctored = _doctor_record(lossy_runs, loop_pending_at_drain=1)
    assert checks.check_runs(doctored)["loop_drained"]


def test_liveness_check_fires_on_a_credited_departed_answer(lossy_runs):
    first = lossy_runs[0]
    live = first.live.copy()
    live[int(np.argmax(first.record.cluster_hit))] = False  # the peer had left
    doctored = [replace(first, live=live), *lossy_runs[1:]]
    assert checks.check_runs(doctored)["answers_live_or_failed"]
    assert doctored[0].failed.sum() == first.failed.sum() + 1


class _Algorithm:
    def __init__(self):
        self.members = np.array([0, 1, 2])

    def build(self):
        pass

    def join(self, ids):
        self.members = np.union1d(self.members, ids)

    def leave(self, ids):
        self.members = np.setdiff1d(self.members, ids)


def test_witness_replays_membership_at_each_start():
    algorithm = _Algorithm()
    now = [0.0]
    witness = checks.MembershipWitness(algorithm, lambda: now[0])
    algorithm.build()
    now[0] = 10.0
    algorithm.leave([1])
    algorithm.join([5])
    now[0] = 20.0
    algorithm.leave([5])
    start_ms = np.array([5.0, 15.0, 15.0, 25.0, 20.0, 30.0])
    found = np.array([1, 1, 5, 5, 5, -1])
    # A start at the instant of a change may see either side of it.
    assert witness.live(start_ms, found, n_hosts=6).tolist() == [
        True, False, True, False, True, False
    ]


def test_witness_agrees_with_the_membership_log(monkeypatch):
    """On a churned run, the witness and the program's own epoch log give
    the same liveness."""
    meters = []
    coarse = layers.coarse

    def spying_coarse(meter):
        meters.append(meter)
        return coarse(meter)

    monkeypatch.setattr(layers, "coarse", spying_coarse)
    scheme_runs = run.run_pass(TINY["churn-400"], 0, traced=False).runs
    for scheme_run, daemon_run in zip(scheme_runs, meters[0].daemon_runs):
        by_log = [
            found in daemon_run.memberships.membership(job.epoch)
            for found, job in zip(scheme_run.record.found, daemon_run.jobs)
        ]
        assert scheme_run.live.tolist() == by_log
