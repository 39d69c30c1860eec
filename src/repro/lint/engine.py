"""The repro-lint engine: file walking, suppressions, rule dispatch.

Suppression comments
--------------------
``# repro-lint: allow(<rule-id>[, <rule-id>...])`` on the offending line —
or alone on the line directly above it — silences those rules for that
line.  ``# repro-lint: allow-file(<rule-id>[, ...])`` anywhere in a file
silences the rules for the whole file.  Anything after ``--`` inside the
parentheses' line is a free-form justification; write one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, all_rules

#: Directory names never descended into.
EXCLUDED_DIRS = frozenset(
    {
        ".git",
        "__pycache__",
        ".pytest_cache",
        ".hypothesis",
        ".claude",
        "lint_fixtures",  # linter test fixtures: data, not code
    }
)

_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\(([^)]*)\)")
_ALLOW_FILE_RE = re.compile(r"#\s*repro-lint:\s*allow-file\(([^)]*)\)")


def _parse_rule_list(raw: str) -> frozenset[str]:
    return frozenset(
        part.strip() for part in raw.split(",") if part.strip()
    )


@dataclass
class Suppressions:
    """Per-line and per-file allow directives parsed from comments."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    whole_file: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def parse(cls, lines: Sequence[str]) -> "Suppressions":
        by_line: dict[int, frozenset[str]] = {}
        whole_file: frozenset[str] = frozenset()
        for idx, line in enumerate(lines, start=1):
            match = _ALLOW_FILE_RE.search(line)
            if match:
                whole_file = whole_file | _parse_rule_list(match.group(1))
                continue
            match = _ALLOW_RE.search(line)
            if not match:
                continue
            rules = _parse_rule_list(match.group(1))
            by_line[idx] = by_line.get(idx, frozenset()) | rules
            # A comment-only allow line covers the next line of code.
            if line.strip().startswith("#"):
                by_line[idx + 1] = by_line.get(idx + 1, frozenset()) | rules
        return cls(by_line=by_line, whole_file=whole_file)

    def covers(self, finding: Finding) -> bool:
        if finding.rule in self.whole_file:
            return True
        return finding.rule in self.by_line.get(finding.line, frozenset())


@dataclass
class FileReport:
    """Lint outcome for one file."""

    path: str
    findings: list[Finding]
    suppressed: list[Finding]
    parse_error: str | None = None


def lint_source(
    source: str,
    rel_path: str,
    rules: Sequence[Rule] | None = None,
) -> FileReport:
    """Lint ``source`` as though it lived at repo-relative ``rel_path``."""
    rel_path = rel_path.replace("\\", "/")
    active = [r for r in (rules or all_rules()) if r.applies_to(rel_path)]
    lines = tuple(source.splitlines())
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return FileReport(
            path=rel_path,
            findings=[
                Finding(
                    path=rel_path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="parse-error",
                    message=f"could not parse: {exc.msg}",
                    line_text="",
                )
            ],
            suppressed=[],
            parse_error=exc.msg,
        )
    ctx = FileContext(path=rel_path, tree=tree, lines=lines)
    suppressions = Suppressions.parse(lines)
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in active:
        for finding in rule.check(ctx):
            (suppressed if suppressions.covers(finding) else kept).append(finding)
    kept.sort()
    suppressed.sort()
    return FileReport(path=rel_path, findings=kept, suppressed=suppressed)


def collect_files(paths: Iterable[Path], root: Path) -> list[Path]:
    """Expand the CLI path arguments into a sorted list of .py files."""
    seen: set[Path] = set()
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_file():
            if path.suffix == ".py":
                seen.add(path.resolve())
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in EXCLUDED_DIRS for part in candidate.parts):
                continue
            seen.add(candidate.resolve())
    return sorted(seen)


def relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintRun:
    """Outcome of linting a set of files."""

    root: str
    files: list[str]
    reports: list[FileReport]

    @property
    def findings(self) -> list[Finding]:
        return sorted(f for report in self.reports for f in report.findings)

    @property
    def suppressed(self) -> list[Finding]:
        return sorted(f for report in self.reports for f in report.suppressed)


def run_paths(
    paths: Sequence[str | Path],
    root: str | Path = ".",
    rules: Sequence[Rule] | None = None,
) -> LintRun:
    """Lint every python file under ``paths`` (relative to ``root``)."""
    root = Path(root)
    rules = list(rules or all_rules())
    files = collect_files([Path(p) for p in paths], root)
    reports: list[FileReport] = []
    rels: list[str] = []
    for file in files:
        rel = relativize(file, root)
        rels.append(rel)
        reports.append(lint_source(file.read_text(), rel, rules))
    return LintRun(root=str(root), files=rels, reports=reports)
