"""Rule registry for repro-lint.

Each rule is a small AST pass protecting one invariant the reproduction's
methodology depends on (see the package docstring in :mod:`repro.lint`).
Rules are pure: they read a parsed module plus its repo-relative path and
return :class:`~repro.lint.findings.Finding`s — suppression comments are
the engine's job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may look at for one file."""

    #: Repo-relative posix path (``src/repro/algorithms/base.py``).
    path: str
    #: Parsed module.
    tree: ast.Module
    #: Raw source split into lines (1-indexed via ``line_at``).
    lines: tuple[str, ...]

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: subclasses set ``rule_id``/``description``/``invariant``."""

    rule_id: str = "abstract"
    #: One-line human description (shown by ``--list-rules``).
    description: str = ""
    #: The methodological invariant the rule protects.
    invariant: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether ``path`` (repo-relative, posix) is in the rule's scope."""
        return True

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            path=ctx.path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            line_text=ctx.line_at(lineno),
        )


def dotted_name(node: ast.expr) -> str | None:
    """Resolve ``a.b.c`` attribute chains to ``"a.b.c"`` (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The called function's dotted name, or None for computed callees."""
    return dotted_name(node.func)


def attr_name(node: ast.expr) -> str | None:
    """The terminal attribute name of a call target (``x.y.probe`` -> ``probe``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


#: Every counted measurement method of
#: :class:`~repro.algorithms.base.NearestPeerAlgorithm`, with its billing
#: channel: ``query`` probes the target (the paper's cost axis), ``aux``
#: counts other query-time traffic, ``index`` builds and maintains the
#: index (billed as maintenance under churn).  The one list the
#: measurement rules share.
COUNTED_CHANNELS: tuple[tuple[str, str], ...] = (
    ("probe", "query"),
    ("probe_many", "query"),
    ("probe_block", "query"),
    ("aux_probe", "aux"),
    ("offline_probe_block", "index"),
)


def in_package(path: str, *packages: str) -> bool:
    """Whether ``path`` lives under ``src/repro/<pkg>/`` for any given pkg."""
    return any(path.startswith(f"src/repro/{pkg}/") for pkg in packages)


def all_rules() -> list[Rule]:
    """Instantiate every shipped rule, in rule-id order."""
    from repro.lint.rules.counted_probes import CountedProbesRule
    from repro.lint.rules.frozen_specs import FrozenSpecsRule
    from repro.lint.rules.obs_passivity import ObsPassivityRule
    from repro.lint.rules.ordered_iteration import OrderedIterationRule
    from repro.lint.rules.plan_purity import PlanPurityRule
    from repro.lint.rules.rng_discipline import RngDisciplineRule
    from repro.lint.rules.wall_clock import WallClockRule

    rules: list[Rule] = [
        CountedProbesRule(),
        FrozenSpecsRule(),
        ObsPassivityRule(),
        OrderedIterationRule(),
        PlanPurityRule(),
        RngDisciplineRule(),
        WallClockRule(),
    ]
    return sorted(rules, key=lambda r: r.rule_id)
