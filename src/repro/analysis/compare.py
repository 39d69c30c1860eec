"""Paper-vs-measured comparison records.

We are not expected to match the paper's absolute numbers (our substrate is a
synthetic Internet, not the authors' 2008 testbed), but the *shape* of every
result must hold: who wins, by roughly what factor, where peaks and
crossovers fall.  :class:`ShapeCheck` encodes one such qualitative claim with
a machine-checkable predicate; :class:`Comparison` pairs a paper-reported
value with our measured one for EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.tables import format_table
from repro.harness.results import TrialRecord


@dataclass(frozen=True)
class Comparison:
    """One paper-reported quantity next to our measured value."""

    experiment: str
    quantity: str
    paper_value: str
    measured_value: str
    note: str = ""


@dataclass
class ShapeCheck:
    """A qualitative claim from the paper, evaluated against measured data.

    Example: "Fig 8: P(correct closest) peaks at an intermediate cluster size
    and declines at 250 end-networks/cluster".
    """

    experiment: str
    claim: str
    predicate: Callable[[], bool]
    result: bool | None = field(default=None)

    def evaluate(self) -> bool:
        """Run the predicate once and cache the outcome."""
        if self.result is None:
            self.result = bool(self.predicate())
        return self.result


def format_trial_records(records: list[TrialRecord]) -> str:
    """Render harness trial records as a head-to-head comparison table.

    One row per scheme: the paper's three success/cost metrics plus the
    auxiliary-probe bill (beacon-to-beacon traffic and the like) and the
    membership-maintenance bill (0.0 under the static protocols).  When
    any record carries simulated timing (a daemon-protocol
    :class:`~repro.harness.results.DaemonTrialRecord`), five daemon
    columns are appended — median/p95/p99 simulated ms to answer, the
    deadline availability and the per-query retransmit bill — and
    records without timing degrade gracefully to ``-`` cells.
    """
    headers = ["scheme", "P(exact closest)", "P(correct cluster)",
               "probes/query", "aux/query", "maint/query"]
    timed = any(_has_timing(r) for r in records)
    if timed:
        headers += [
            "tta p50 (ms)", "tta p95 (ms)", "tta p99 (ms)",
            "availability", "retx/query",
        ]
    rows = []
    for r in records:
        row = [
            r.scheme,
            f"{r.exact_rate:.3f}",
            f"{r.cluster_rate:.3f}",
            f"{r.mean_probes_per_query:.1f}",
            f"{r.mean_aux_probes_per_query:.1f}",
            f"{r.mean_maintenance_probes_per_query:.1f}",
        ]
        if timed:
            if _has_timing(r):
                retransmits = getattr(r, "total_probe_retransmits", None)
                row += [
                    f"{r.tta_median_ms:.1f}",
                    f"{r.tta_p95_ms:.1f}",
                    f"{r.tta_p99_ms:.1f}",
                    f"{r.availability:.3f}",
                    (
                        "-"
                        if retransmits is None
                        else f"{retransmits / r.n_queries:.2f}"
                    ),
                ]
            else:
                row += ["-"] * 5
        rows.append(row)
    return format_table(headers, rows)


def _has_timing(record: TrialRecord) -> bool:
    """Whether a record carries the daemon timing arrays.

    Checks the arrays themselves (not the percentile properties): a
    :class:`~repro.harness.results.DaemonTrialRecord` built without its
    optional timing fields must degrade like an untimed record rather
    than crash the percentile computation.
    """
    return (
        getattr(record, "arrival_ms", None) is not None
        and getattr(record, "finish_ms", None) is not None
    )


def rank_by_time_to_answer(records: list[TrialRecord]) -> list[TrialRecord]:
    """Order daemon records by median time to answer, fastest first.

    The daemon protocol's headline ranking: schemes are judged by how
    quickly they *answer* under load, not how few probes they issue.
    Records without timing (non-daemon protocols) and records that
    answered no query (a NaN median) sort last, keeping their relative
    order.
    """
    def key(indexed: tuple[int, TrialRecord]) -> tuple[int, float, int]:
        index, record = indexed
        median = record.tta_median_ms if _has_timing(record) else math.nan
        if math.isnan(median):
            return (1, 0.0, index)
        return (0, median, index)

    return [record for _, record in sorted(enumerate(records), key=key)]


def format_comparisons(comparisons: list[Comparison]) -> str:
    """Render comparison records as a table for EXPERIMENTS.md."""
    return format_table(
        ["experiment", "quantity", "paper", "measured", "note"],
        [
            [c.experiment, c.quantity, c.paper_value, c.measured_value, c.note]
            for c in comparisons
        ],
    )


def format_shape_checks(checks: list[ShapeCheck]) -> str:
    """Render shape-check outcomes as a PASS/FAIL table."""
    return format_table(
        ["experiment", "claim", "holds"],
        [
            [c.experiment, c.claim, "PASS" if c.evaluate() else "FAIL"]
            for c in checks
        ],
    )
