"""R1 ``rng-discipline`` — all randomness flows from seeded numpy Generators.

The reproduction's comparisons lean on common random numbers: two schemes
(or the fault stream vs the workload stream) must see
*identical* draws from identical seeds.  Any stdlib ``random`` use, any
global numpy seeding, and any OS-entropy ``default_rng()`` breaks that
silently — outputs stay plausible, CRN comparisons stop meaning anything.
Generators are created in :mod:`repro.util.rng` (``make_rng`` /
``child_rng`` / ``RngStream``) and passed down explicitly.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, call_name

#: numpy legacy global-state draw functions (``np.random.<fn>``) — these all
#: read the hidden global RandomState, so they are unseedable per-component.
_GLOBAL_NP_DRAWS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "exponential",
        "poisson",
    }
)

_NP_MODULE_NAMES = ("np.random", "numpy.random")


class RngDisciplineRule(Rule):
    rule_id = "rng-discipline"
    description = (
        "no stdlib random, no global numpy RNG state, no unseeded "
        "default_rng() outside util/rng.py"
    )
    invariant = (
        "every outcome is a pure function of explicit seeds (common random "
        "numbers across schemes and fault streams)"
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith("repro/util/rng.py")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "stdlib `random` is banned: draw from a seeded "
                                "np.random.Generator (repro.util.rng.make_rng)",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "stdlib `random` is banned: draw from a seeded "
                            "np.random.Generator (repro.util.rng.make_rng)",
                        )
                    )
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, node))
        return findings

    def _check_call(self, ctx: FileContext, node: ast.Call) -> list[Finding]:
        name = call_name(node)
        if name is None:
            return []
        for module in _NP_MODULE_NAMES:
            prefix = module + "."
            if name.startswith(prefix):
                fn = name[len(prefix) :]
                if fn == "seed":
                    return [
                        self.finding(
                            ctx,
                            node,
                            "np.random.seed mutates hidden global state: pass "
                            "a seeded Generator instead",
                        )
                    ]
                if fn in _GLOBAL_NP_DRAWS:
                    return [
                        self.finding(
                            ctx,
                            node,
                            f"np.random.{fn} draws from the global RandomState:"
                            " use a seeded Generator's method instead",
                        )
                    ]
        if name == "default_rng" or name.endswith(".default_rng"):
            if self._unseeded(node):
                return [
                    self.finding(
                        ctx,
                        node,
                        "unseeded default_rng() pulls OS entropy: thread an "
                        "explicit seed/Generator through make_rng/child_rng",
                    )
                ]
        return []

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.keywords:
            return all(
                kw.arg == "seed"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is None
                for kw in node.keywords
            )
        if not node.args:
            return True
        return len(node.args) == 1 and (
            isinstance(node.args[0], ast.Constant) and node.args[0].value is None
        )
