"""``repro-trace``: render JSONL daemon traces as ASCII timelines.

Three views over files written by :func:`repro.obs.export.dump_trace_jsonl`:

* the default **timeline** — one query's spans as a scaled bar chart on
  simulated time (slowest round highlighted, retry chains annotated),
  with the critical-path accounting line that proves the phases tile the
  query's time to answer;
* ``--summary`` — the **phase breakdown** table: p50/p95/p99 simulated
  ms per phase per scheme, across every trace block given;
* ``--validate`` — the schema gate (exit 1 on any problem), the hook CI
  runs on exported artifacts.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.obs.export import TraceDump, load_trace_jsonl, validate_trace
from repro.obs.trace import Span, spans_by_query

#: Phases the summary decomposes time-to-answer into, in report order.
PHASES = ("queue_wait", "probe_round", "plan_retry")


def _query_phases(children: list[Span]) -> dict[str, float]:
    """Total simulated ms per phase for one query's child spans."""
    totals = dict.fromkeys(PHASES, 0.0)
    for span in children:
        if span.name in totals:
            totals[span.name] += span.duration_ms
    return totals


def slowest_query(dump: TraceDump) -> int:
    """The query index with the largest root-span duration."""
    best_query, best_tta = -1, -1.0
    for query, group in sorted(spans_by_query(dump.spans).items()):
        root = next((s for s in group if s.seq == 0), None)
        if root is not None and root.duration_ms > best_tta:
            best_query, best_tta = query, root.duration_ms
    if best_query < 0:
        raise ValueError("trace block holds no query spans")
    return best_query


def _bar(start: float, end: float, t0: float, t1: float, width: int) -> str:
    """A fixed-width ASCII bar for ``[start, end]`` inside ``[t0, t1]``."""
    span = max(t1 - t0, 1e-12)
    lo = min(int(round((start - t0) / span * width)), width - 1)
    if end <= start:  # zero-length marker (dispatch, empty rounds)
        return " " * lo + "."
    hi = max(int(round((end - t0) / span * width)), lo + 1)
    return " " * lo + "#" * (hi - lo)


def _span_note(span: Span) -> str:
    attrs = span.attrs
    bits: list[str] = []
    if span.name == "probe_round":
        bits.append(f"probes={attrs.get('probes', '?')}")
        for key, tag in (
            ("retransmitted", "retx"),
            ("dropped", "drop"),
            ("timed_out", "tmo"),
            ("relayed", "relay"),
        ):
            if attrs.get(key):
                bits.append(f"{tag}={attrs[key]}")
    elif span.name == "plan_retry":
        bits.append(f"attempt={attrs.get('attempt', '?')}")
    elif span.name == "dispatch":
        bits.append(f"entry={attrs.get('entry', '?')}")
    elif span.name == "maintenance_flush":
        ids = attrs.get("event_ids", [])
        bits.append(f"events={list(ids)}")
        bits.append(f"probes={attrs.get('probes', '?')}")
    return " ".join(bits)


def render_timeline(dump: TraceDump, query: int | None = None, width: int = 48) -> str:
    """One query's spans as a scaled simulated-time bar chart."""
    if query is None:
        query = slowest_query(dump)
    group = spans_by_query(dump.spans).get(int(query))
    if not group:
        raise ValueError(f"query {query} not in trace")
    root = next(s for s in group if s.seq == 0)
    children = [s for s in group if s.seq != 0]
    t0, t1 = root.start_ms, root.end_ms
    rounds = [s for s in children if s.name == "probe_round"]
    slowest = max(rounds, key=lambda s: s.duration_ms, default=None)
    scheme = dump.meta.get("scheme", "?")
    queue = sum(s.duration_ms for s in children if s.name == "queue_wait")
    retry_ms = sum(s.duration_ms for s in children if s.name == "plan_retry")
    lines = [
        (
            f"query {query} · {scheme} · tta {root.duration_ms:.2f} ms "
            f"(queue {queue:.2f} + rounds "
            f"{sum(s.duration_ms for s in rounds):.2f} + retry-gaps "
            f"{retry_ms:.2f}) · {len(rounds)} rounds · "
            f"{root.attrs.get('retries', 0)} retries"
            + (" · unanswered" if root.attrs.get("found", 0) < 0 else "")
        ),
        f"t0 = {t0:.2f} ms simulated (arrival)",
        "",
    ]
    round_no = 0
    for span in children:
        label = span.name
        if span.name == "probe_round":
            round_no += 1
            label = f"probe_round #{round_no}"
        mark = "  <-- slowest round" if span is slowest else ""
        note = _span_note(span)
        lines.append(
            f"{label:<16} {span.start_ms - t0:>9.2f} {span.duration_ms:>9.2f}  "
            f"|{_bar(span.start_ms, span.end_ms, t0, t1, width):<{width}}|"
            f"{('  ' + note) if note else ''}{mark}"
        )
    covered = sum(s.duration_ms for s in children if s.name != "dispatch")
    lines.append("")
    lines.append(
        f"critical path: phases cover {covered:.2f} ms of "
        f"{root.duration_ms:.2f} ms tta "
        f"({'exact tiling' if abs(covered - root.duration_ms) < 1e-6 else 'GAP'})"
    )
    return "\n".join(lines)


def render_summary(dumps: list[TraceDump]) -> str:
    """p50/p95/p99 simulated ms per phase per scheme, one table."""
    headers = ["scheme", "phase", "p50 (ms)", "p95 (ms)", "p99 (ms)", "share"]
    rows: list[list[str]] = []
    for dump in dumps:
        scheme = dump.meta.get("scheme", "?")
        grouped = spans_by_query(dump.spans)
        if not grouped:
            continue
        ttas = []
        per_phase: dict[str, list[float]] = {name: [] for name in PHASES}
        for _query, group in sorted(grouped.items()):
            root = next(s for s in group if s.seq == 0)
            ttas.append(root.duration_ms)
            totals = _query_phases([s for s in group if s.seq != 0])
            for name in PHASES:
                per_phase[name].append(totals[name])
        tta = np.asarray(ttas)
        mean_tta = float(tta.mean()) if tta.size else 0.0
        for name in (*PHASES, "tta"):
            values = tta if name == "tta" else np.asarray(per_phase[name])
            share = (
                float(values.mean()) / mean_tta if mean_tta > 0 else 0.0
            )
            rows.append(
                [
                    scheme,
                    name,
                    f"{np.percentile(values, 50):.1f}",
                    f"{np.percentile(values, 95):.1f}",
                    f"{np.percentile(values, 99):.1f}",
                    f"{share:.0%}" if name != "tta" else "100%",
                ]
            )
    return format_table(headers, rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Render simulated-time daemon traces (JSONL).",
    )
    parser.add_argument("files", nargs="+", help="JSONL trace files")
    parser.add_argument(
        "--query", type=int, default=None,
        help="query index to render (default: the slowest query)",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="phase-breakdown table across all trace blocks",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="schema-validate the files; exit 1 on any problem",
    )
    parser.add_argument(
        "--width", type=int, default=48, help="timeline bar width (chars)"
    )
    args = parser.parse_args(argv)
    if args.validate:
        status = 0
        for path in args.files:
            problems = validate_trace(path)
            if problems:
                status = 1
                for problem in problems:
                    print(f"{path}: {problem}")
            else:
                print(f"{path}: OK")
        return status
    dumps = [dump for path in args.files for dump in load_trace_jsonl(path)]
    if args.summary:
        print(render_summary(dumps))
        return 0
    print(render_timeline(dumps[0], query=args.query, width=args.width))
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry
    sys.exit(main())
