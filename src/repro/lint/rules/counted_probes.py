"""R3 ``counted-probes`` — no oracle measurement bypasses the billing.

The paper's cost/accuracy trade-off is stated in *probes*; the reproduction
bills every measurement through one of
:class:`~repro.algorithms.base.NearestPeerAlgorithm`'s counted channels
(:data:`~repro.lint.rules.COUNTED_CHANNELS`: the query, aux and index
channels; the index channel is free during the offline build and billed
as maintenance under churn).  A direct
``latency_ms``/``latencies_from``/``latency_block`` oracle call inside the
algorithm/overlay/service/harness layers is an un-billed oracle read — the
numbers stay plausible while the cost axis quietly goes wrong.  So is a
write to a probe counter (``_probe_count``, ``_aux_probe_count``,
``_maintenance_probe_count``): only the channels in ``algorithms/base.py``
move them.

Scope: the packages where billing is the point.  The oracle/topology
definitions themselves, the measurement-tool simulators, and the netsim
wire (which bills its own relay detours) are out of scope.  Substrates
that build an index (the Meridian overlay, the GNP embedding, the Vivaldi
system's ``run``) take a ``measure`` callable instead of an oracle, so
their measurements are billed by whichever channel the caller hands them.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import (
    COUNTED_CHANNELS,
    FileContext,
    Rule,
    attr_name,
    in_package,
)

_ORACLE_METHODS = frozenset({"latency_ms", "latencies_from", "latency_block"})

_PROBE_COUNTERS = frozenset(
    {"_probe_count", "_aux_probe_count", "_maintenance_probe_count"}
)

_CHANNEL_NAMES = "/".join(name for name, _ in COUNTED_CHANNELS)


class CountedProbesRule(Rule):
    rule_id = "counted-probes"
    description = (
        "direct oracle latency calls outside the counted probe helpers "
        "are billing bypasses"
    )
    invariant = (
        "every query/maintenance measurement lands on a probe counter the "
        "paper's cost axis reads"
    )

    def applies_to(self, path: str) -> bool:
        # algorithms/base.py hosts the counted helpers themselves; the
        # oracle/topology/latency definitions and measurement simulators
        # are the measurement substrate, not billed consumers of it.
        if path.endswith("repro/algorithms/base.py"):
            return False
        return in_package(path, "algorithms", "meridian", "service", "harness")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = attr_name(node.func)
                if name in _ORACLE_METHODS and isinstance(
                    node.func, ast.Attribute
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"direct oracle `.{name}()` bypasses probe "
                            f"billing: measure through {_CHANNEL_NAMES}",
                        )
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in _PROBE_COUNTERS
                and isinstance(node.ctx, ast.Store)
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"write to `{node.attr}` outside the counted "
                        f"channels: bill by measuring through {_CHANNEL_NAMES}",
                    )
                )
        return findings
