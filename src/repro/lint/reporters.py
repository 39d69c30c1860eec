"""Text and JSON reporters for repro-lint.

Reports carry no timestamps or host details: identical trees produce
byte-identical reports (the linter holds itself to the determinism rules
it enforces).
"""

from __future__ import annotations

import json

from repro.lint.engine import LintRun
from repro.lint.findings import Finding
from repro.lint.rules import Rule

JSON_REPORT_VERSION = 2


def render_text(run: LintRun, show_suppressed: bool = False) -> str:
    out: list[str] = []
    for finding in run.findings:
        out.append(f"{finding.location()}: {finding.rule}: {finding.message}")
        if finding.line_text:
            out.append(f"    {finding.line_text}")
    if show_suppressed:
        for finding in run.suppressed:
            out.append(
                f"{finding.location()}: {finding.rule}: suppressed "
                f"(# repro-lint: allow)"
            )
    out.append(
        f"{len(run.files)} files checked: {len(run.findings)} finding(s), "
        f"{len(run.suppressed)} suppressed"
    )
    return "\n".join(out)


def render_json(run: LintRun, rules: list[Rule]) -> str:
    def encode(findings: list[Finding]) -> list[dict]:
        return [f.to_json() for f in findings]

    payload = {
        "version": JSON_REPORT_VERSION,
        "tool": "repro-lint",
        "checked_files": len(run.files),
        "rules": [
            {
                "id": rule.rule_id,
                "description": rule.description,
                "invariant": rule.invariant,
            }
            for rule in rules
        ],
        "findings": encode(run.findings),
        "suppressed": encode(run.suppressed),
        "exit_code": 1 if run.findings else 0,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
