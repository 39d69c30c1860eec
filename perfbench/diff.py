"""Compare two benchmark result files, workload by workload.

Usage::

    python3 perfbench/diff.py A.jsonl B.jsonl

Each file holds the records ``perfbench/run.py --out FILE`` appends, one
JSON object per line.  For every workload the untraced records give the
end-to-end medians and quartiles side by side; the traced records give
each layer's self-time share, ranked by how far it moved from A to B.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """``{workload: {"e2e": [metrics...], "trace": [metrics...]}}``."""
    grouped: dict = defaultdict(lambda: {"e2e": [], "trace": []})
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                kind = "trace" if record["trace"] else "e2e"
                grouped[record["workload"]][kind].append(record["metrics"])
    return grouped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _column(records: list[dict], name: str) -> list[float]:
    return [r[name]["value"] for r in records if name in r]


def end_to_end_rows(a: list[dict], b: list[dict]) -> list[str]:
    names = list(dict.fromkeys(n for r in a + b for n in r))
    rows = [f"  {'metric':28s} {'A median [q1, q3]':>32s} "
            f"{'B median [q1, q3]':>32s} {'B/A':>8s}"]
    for name in names:
        cells = []
        medians = []
        for records in (a, b):
            values = _column(records, name)
            if not values:
                cells.append(f"{'-':>32s}")
                medians.append(None)
                continue
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:>12.5g} [{q1:.5g}, {q3:.5g}]".rjust(32))
            medians.append(med)
        ratio = (
            f"{medians[1] / medians[0]:8.3f}"
            if None not in medians and medians[0]
            else f"{'-':>8s}"
        )
        unit = next(r[name]["unit"] for r in a + b if name in r)
        rows.append(f"  {name + ' (' + unit + ')':28s} {cells[0]} {cells[1]} {ratio}")
    return rows


def share_rows(a: list[dict], b: list[dict]) -> list[str]:
    names = list(dict.fromkeys(
        n for r in a + b for n in r if n.startswith("share.")
    ))
    moved = []
    for name in names:
        sa = statistics.median(_column(a, name)) if _column(a, name) else 0.0
        sb = statistics.median(_column(b, name)) if _column(b, name) else 0.0
        moved.append((abs(sb - sa), name, sa, sb))
    moved.sort(reverse=True)
    rows = [f"  {'layer self-time share':30s} {'A':>8s} {'B':>8s} {'moved':>8s}"]
    for _, name, sa, sb in moved:
        rows.append(f"  {name[len('share.'):]:30s} {sa:8.3f} {sb:8.3f} {sb - sa:+8.3f}")
    return rows


def diff(path_a: str, path_b: str) -> str:
    a, b = load(path_a), load(path_b)
    lines = []
    for workload in sorted(set(a) | set(b)):
        ga, gb = a.get(workload), b.get(workload)
        if ga is None or gb is None:
            lines.append(f"{workload}: only in {'A' if gb is None else 'B'}")
            continue
        lines.append(f"{workload}: {len(ga['e2e'])} vs {len(gb['e2e'])} "
                     f"untraced runs, {len(ga['trace'])} vs "
                     f"{len(gb['trace'])} traced")
        if ga["e2e"] or gb["e2e"]:
            lines += end_to_end_rows(ga["e2e"], gb["e2e"])
        if ga["trace"] or gb["trace"]:
            lines += share_rows(ga["trace"], gb["trace"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    print(diff(args.a, args.b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
