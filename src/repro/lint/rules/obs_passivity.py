"""R7 ``obs-passivity`` — the observability layer observes, never acts.

The whole value of the tracing/metrics layer (:mod:`repro.obs`) is the
guarantee that *enabling it changes nothing*: answers, time-to-answer
percentiles and maintenance bills are bit-identical with tracing on or
off (the trace tests pin this at runtime for every scheme).  That only
holds if the layer is passive — every number on a span or series comes
from the event loop's clock or a counter the driver already keeps.  One
oracle read would bill un-counted probes; one rng draw would shift every
downstream draw in the stream and silently fork the timeline.

This rule pins the property statically: inside ``src/repro/obs/`` no
oracle measurement calls, no probe helpers, no stdlib ``random``, no
``np.random`` access (including ``default_rng``) and no seeded-generator
constructors from :mod:`repro.util.rng`.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, attr_name, call_name

#: Oracle measurement surface + counted probe helpers: an observability
#: module has no business measuring anything.
_MEASUREMENT_CALLS = frozenset(
    {
        "latency_ms",
        "latencies_from",
        "latency_block",
        "probe",
        "probe_many",
        "probe_block",
        "aux_probe",
        "aux_probe_many",
        "maintenance_probe",
        "maintenance_probe_many",
    }
)

#: Generator constructors — a passive layer needs no randomness at all.
_RNG_CONSTRUCTORS = frozenset({"default_rng", "make_rng", "child_rng"})


class ObsPassivityRule(Rule):
    rule_id = "obs-passivity"
    description = (
        "repro.obs must not measure (oracle/probe calls) or draw "
        "randomness (rng constructors, np.random, stdlib random)"
    )
    invariant = (
        "tracing is passive and rng-clean: enabling it is bit-identical "
        "for answers, timing and maintenance bills"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/obs/")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "obs code must not import stdlib `random`: "
                                "the observability layer is rng-clean",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module == "repro.util.rng":
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"obs code must not import {module!r}: the "
                            "observability layer is rng-clean",
                        )
                    )
            elif isinstance(node, ast.Call):
                name = attr_name(node.func)
                dotted = call_name(node)
                if name in _RNG_CONSTRUCTORS:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{name}()` in obs code: tracing must consume "
                            "zero rng draws (enabling it would fork the "
                            "stream it observes)",
                        )
                    )
                elif name in _MEASUREMENT_CALLS and isinstance(
                    node.func, ast.Attribute
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`.{name}()` in obs code: the observability "
                            "layer reads clocks and counters, it never "
                            "measures",
                        )
                    )
                elif dotted is not None and (
                    dotted.startswith("np.random.")
                    or dotted.startswith("numpy.random.")
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{dotted}()` in obs code: tracing must consume "
                            "zero rng draws",
                        )
                    )
        return findings
