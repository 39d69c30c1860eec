"""R6 ``frozen-specs`` — scenario/config specs are immutable value objects.

``*Spec`` dataclasses (``DaemonSpec``, ``FaultSpec``, ``TraceSpec``, …) are
shared freely: the scenario registry hands the same instance to every
trial, the engine ships them to worker processes, and ``compare()``
replays one spec across schemes.  A mutable spec lets one consumer's edit
leak into another's run — the classic irreproducibility bug.  Every spec
dataclass must be declared ``frozen=True``, and nothing may assign spec
attributes after construction (``dataclasses.replace`` is the sanctioned
way to derive a variant).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule


def _is_dataclass_decorator(node: ast.expr) -> ast.Call | None:
    """Return the decorator Call if it is ``@dataclass(...)`` (None for bare)."""
    if isinstance(node, ast.Call):
        inner = node.func
    else:
        inner = node
    name = inner.attr if isinstance(inner, ast.Attribute) else getattr(inner, "id", None)
    if name != "dataclass":
        return None
    return node if isinstance(node, ast.Call) else None


class FrozenSpecsRule(Rule):
    rule_id = "frozen-specs"
    description = "*Spec dataclasses must be frozen=True and never mutated"
    invariant = (
        "a spec shared across trials/schemes/processes cannot drift "
        "mid-experiment"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Spec"):
                findings.extend(self._check_class(ctx, node))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                findings.extend(self._check_assignment(ctx, node))
        return findings

    def _check_class(self, ctx: FileContext, node: ast.ClassDef) -> list[Finding]:
        decorated = False
        for decorator in node.decorator_list:
            call = _is_dataclass_decorator(decorator)
            if call is None and not self._is_bare_dataclass(decorator):
                continue
            decorated = True
            if call is not None and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            ):
                return []
        if not decorated:
            return []
        return [
            self.finding(
                ctx,
                node,
                f"spec dataclass `{node.name}` must be @dataclass(frozen=True):"
                " specs are shared across trials and processes",
            )
        ]

    @staticmethod
    def _is_bare_dataclass(decorator: ast.expr) -> bool:
        name = (
            decorator.attr
            if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", None)
        )
        return name == "dataclass"

    def _check_assignment(
        self, ctx: FileContext, node: ast.Assign | ast.AugAssign
    ) -> list[Finding]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        findings: list[Finding] = []
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            receiver = target.value
            name = receiver.id if isinstance(receiver, ast.Name) else None
            if name is None or not name.lower().endswith("spec"):
                continue
            if name.lower() in {"self", "cls"}:  # pragma: no cover - by construction
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"attribute assignment on spec `{name}`: specs are frozen "
                    "value objects — derive variants with dataclasses.replace",
                )
            )
        return findings
