"""R4 ``plan-purity`` — query plans stay sans-io between their yields.

The simulated-time daemon times a query by when its yielded probe rounds
*complete*; the contract (see ``NearestPeerAlgorithm._plan``) is that every
measurement a plan acts on was taken through the counted query channel and
offered to the driver via ``_offer_round`` / ``yield``.  A plan body that
reads the oracle directly — or that measures through the *maintenance*
channel — takes hidden probes the daemon never schedules, so the timeline
(and under faults, the outcome mask flow) is silently wrong.

The rule checks the bodies of generator functions named ``_plan`` /
``query_plan`` (helpers a plan calls are covered by R3's package-wide
billing scope; this rule is about the plan's own round structure).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, attr_name

_PLAN_NAMES = frozenset({"_plan", "query_plan"})

_FORBIDDEN = frozenset(
    {
        # raw oracle reads
        "latency_ms",
        "latencies_from",
        "latency_block",
        # offline/maintenance channels: billed to the wrong ledger and
        # invisible to the driver's round timing
        "maintenance_probe",
        "maintenance_probe_many",
        "maintenance_probe_block",
        "offline_distances_from",
    }
)


class PlanPurityRule(Rule):
    rule_id = "plan-purity"
    description = (
        "_plan/query_plan bodies may not read the oracle or the "
        "maintenance channel directly"
    )
    invariant = (
        "the daemon's timeline sees every probe a plan takes, as a yielded "
        "round"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _PLAN_NAMES
            ):
                findings.extend(self._check_plan(ctx, node))
        return findings

    def _check_plan(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = attr_name(node.func)
            if name in _FORBIDDEN:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"`{name}()` inside `{fn.name}`: plans measure only "
                        "through the counted query channel and offer every "
                        "round via _offer_round/yield",
                    )
                )
        return findings
