"""Output checks, the membership witness they judge liveness by, and the
simulation digest of a run."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.harness.results import DaemonTrialRecord


@dataclass(frozen=True)
class SchemeRun:
    """One scheme's scored daemon run plus what the record does not carry."""

    record: DaemonTrialRecord
    #: Per query: the answer was a member when the query started service,
    #: by the :class:`MembershipWitness`, not by the program's scorer.
    live: np.ndarray
    #: The algorithm's own cumulative maintenance counter after the run.
    maintenance_total: int

    @property
    def failed(self) -> np.ndarray:
        """Per query: no live answer, or answered after the deadline."""
        return ~self.live | (self.record.time_to_answer_ms > self.record.deadline_ms)


class MembershipWitness:
    """The membership an algorithm was told about, kept apart from the scorer.

    Instance wrappers on ``build``, ``join`` and ``leave`` record the
    members after build and every change with the simulated time it was
    made at (``clock()``).  :meth:`live` replays them to judge each answer,
    so a scorer or membership log that credits a departed peer is caught.
    """

    def __init__(self, algorithm, clock) -> None:
        self.initial = np.zeros(0, dtype=int)
        #: ``(time_ms, joined, ids)`` in call order.
        self.events: list[tuple[float, bool, np.ndarray]] = []
        build, join, leave = algorithm.build, algorithm.join, algorithm.leave

        def built(*args, **kwargs):
            out = build(*args, **kwargs)
            self.initial = np.array(algorithm.members, dtype=int)
            self.events.clear()
            return out

        def joined(ids, *args, **kwargs):
            self.events.append((clock(), True, np.array(ids, dtype=int)))
            return join(ids, *args, **kwargs)

        def left(ids, *args, **kwargs):
            self.events.append((clock(), False, np.array(ids, dtype=int)))
            return leave(ids, *args, **kwargs)

        algorithm.build, algorithm.join, algorithm.leave = built, joined, left

    def live(self, start_ms: np.ndarray, found: np.ndarray, n_hosts: int) -> np.ndarray:
        """Whether each answer was a member when its query started service.

        A query that started at the same simulated instant as a change
        counts as live if its answer was a member either side of it.
        """
        mask = np.zeros(n_hosts + 1, dtype=bool)  # last slot: "no answer"
        mask[self.initial] = True
        found = np.where(found >= 0, found, n_hosts)
        order = np.argsort(start_ms, kind="stable")
        starts = start_ms[order]
        live = np.zeros(found.size, dtype=bool)
        lo = 0
        for time_ms, joined, ids in self.events:
            idx = order[lo:np.searchsorted(starts, time_ms, side="right")]
            live[idx] |= mask[found[idx]]
            lo = int(np.searchsorted(starts, time_ms, side="left"))
            mask[ids] = joined
        idx = order[lo:]
        live[idx] |= mask[found[idx]]
        return live


def check_runs(runs: list[SchemeRun]) -> dict[str, list[str]]:
    """Each output check mapped to the schemes that fail it (empty = pass)."""
    failures: dict[str, list[str]] = {
        "ledger_conservation": [],
        "drops_eq_retransmits_plus_timeouts": [],
        "loop_drained": [],
        "answers_live_or_failed": [],
    }
    for run in runs:
        r = run.record
        billed = int(np.sum(r.maintenance_by_event)) + int(
            r.maintenance_background_probes
        )
        if billed != run.maintenance_total:
            failures["ledger_conservation"].append(r.scheme)
        if r.total_probe_drops != r.total_probe_retransmits + r.total_probe_timeouts:
            failures["drops_eq_retransmits_plus_timeouts"].append(r.scheme)
        if r.loop_pending_at_drain != 0:
            failures["loop_drained"].append(r.scheme)
        # The scorer must credit only answers the witness saw live.
        if np.any((r.exact_hit | r.cluster_hit) & ~run.live):
            failures["answers_live_or_failed"].append(r.scheme)
    return failures


def sim_digest(runs: list[SchemeRun]) -> str:
    """Hash of every query's target, answer, probe bill and finish time."""
    h = hashlib.sha256()
    for run in runs:
        r = run.record
        h.update(r.scheme.encode())
        for array, dtype in (
            (r.targets, np.int64),
            (r.found, np.int64),
            (r.probes, np.int64),
            (r.finish_ms, np.float64),
        ):
            h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return h.hexdigest()[:16]
