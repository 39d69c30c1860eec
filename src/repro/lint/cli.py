"""Command-line entry point: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 clean (after inline allow comments), 1 findings,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import run_paths
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import all_rules

_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for this reproduction: determinism "
            "(rng-discipline, no-wall-clock, ordered-iteration), probe "
            "billing (counted-probes), sans-io plans (plan-purity) and "
            "immutable specs (frozen-specs)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests benchmarks "
        "examples, whichever exist under --root)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root rule scopes are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by allow comments (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with the invariant it protects and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}: {rule.description}")
            print(f"    protects: {rule.invariant}")
        return 0

    if args.select:
        wanted = {part.strip() for part in args.select.split(",") if part.strip()}
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]

    root = Path(args.root)
    if not root.is_dir():
        print(f"repro-lint: --root {args.root} is not a directory", file=sys.stderr)
        return 2
    paths = args.paths or [p for p in _DEFAULT_PATHS if (root / p).is_dir()]
    if not paths:
        print("repro-lint: nothing to lint", file=sys.stderr)
        return 2

    run = run_paths(paths, root=root, rules=rules)
    if args.format == "json":
        print(render_json(run, rules))
    else:
        print(render_text(run, show_suppressed=args.show_suppressed))
    return 1 if run.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
