"""R5 ``ordered-iteration`` — no set-ordered loops in CRN-sensitive code.

CPython sets iterate in hash order, which for ints tracks the values but
for general objects (and across interpreter builds / PYTHONHASHSEED for
strings) does not.  In the packages where draws and outcomes must replay
bit-for-bit across schemes and reruns, a loop whose body
consumes RNG or emits events in set order is a latent CRN break: it works
today and diverges on the next refactor.  Iterate ``sorted(s)`` (or keep an
insertion-ordered list/dict alongside the set) instead.

The rule flags ``for`` loops and comprehensions whose iterable is provably
set-ish — a set literal/comprehension, a ``set()``/``frozenset()`` call, a
set-operator expression, or a local name assigned one of those — with
order-insensitive reductions (``min``/``max``/``sum``/``any``/``all``/
``sorted``/``set``/``frozenset``/``len``) over generator expressions
exempted.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, in_package

#: Calls that construct a set.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: Set methods returning another set.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: Order-preserving wrappers: iterating `list(s)` is as bad as iterating `s`.
_TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "enumerate", "zip", "reversed", "iter"})
#: Reductions whose result does not depend on iteration order.
_ORDER_FREE_CONSUMERS = frozenset(
    {"any", "all", "min", "max", "sum", "sorted", "set", "frozenset", "len"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class OrderedIterationRule(Rule):
    rule_id = "ordered-iteration"
    description = (
        "iteration over set/frozenset values in CRN-sensitive packages "
        "must be sorted()"
    )
    invariant = (
        "loop order (and therefore RNG consumption and event order) is "
        "deterministic and refactor-stable"
    )

    def applies_to(self, path: str) -> bool:
        return in_package(path, "algorithms", "service", "netsim", "harness")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        exempt = _order_free_genexps(ctx.tree)
        self._visit_scope(ctx, ctx.tree, frozenset(), exempt, findings)
        return findings

    # -- scope walking ---------------------------------------------------------

    def _visit_scope(
        self,
        ctx: FileContext,
        scope: ast.AST,
        inherited: frozenset[str],
        exempt: set[int],
        findings: list[Finding],
    ) -> None:
        setish_names = (
            inherited
            | _setish_parameters(scope)
            | _setish_assignments(scope, inherited)
        )
        for node in _walk_scope(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit_scope(ctx, node, setish_names, exempt, findings)
            elif isinstance(node, ast.For):
                self._check_iter(ctx, node.iter, setish_names, findings)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if id(node) in exempt:
                    continue
                for generator in node.generators:
                    self._check_iter(ctx, generator.iter, setish_names, findings)

    def _check_iter(
        self,
        ctx: FileContext,
        iter_expr: ast.expr,
        setish_names: frozenset[str],
        findings: list[Finding],
    ) -> None:
        if _is_setish(iter_expr, setish_names, transparent=True):
            findings.append(
                self.finding(
                    ctx,
                    iter_expr,
                    "iteration over a set is hash-ordered: wrap in sorted() "
                    "or keep an insertion-ordered list/dict alongside",
                )
            )


def _walk_scope(scope: ast.AST):
    """Yield nodes of ``scope`` without descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _setish_parameters(scope: ast.AST) -> frozenset[str]:
    """Parameters annotated ``set[...]``/``frozenset[...]`` in this scope."""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return frozenset()
    args = scope.args
    names: set[str] = set()
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None and _is_set_annotation(arg.annotation):
            names.add(arg.arg)
    return frozenset(names)


def _setish_assignments(scope: ast.AST, known: frozenset[str]) -> frozenset[str]:
    """Names bound to a provably set-ish value anywhere in this scope."""
    names: set[str] = set()
    # Two passes so `a = set(); b = a` resolves regardless of statement order
    # in branches; convergence is immediate for the chains seen in practice.
    for _ in range(2):
        for node in _walk_scope(scope):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if not isinstance(target, ast.Name):
                continue
            if annotation is not None and _is_set_annotation(annotation):
                names.add(target.id)
            elif value is not None and _is_setish(
                # Transparent: `listed = list(pending)` is as hash-ordered
                # as `pending` itself.
                value, known | frozenset(names), transparent=True
            ):
                names.add(target.id)
    return frozenset(names)


def _is_set_annotation(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}


def _is_setish(
    node: ast.expr, setish_names: frozenset[str], transparent: bool
) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in setish_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_setish(node.left, setish_names, False) or _is_setish(
            node.right, setish_names, False
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _SET_CONSTRUCTORS:
                return True
            if transparent and func.id in _TRANSPARENT_WRAPPERS:
                return any(
                    _is_setish(arg, setish_names, False) for arg in node.args
                )
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_setish(func.value, setish_names, False)
    return False


def _order_free_genexps(tree: ast.Module) -> set[int]:
    """ids of comprehension nodes consumed by order-insensitive reductions."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_FREE_CONSUMERS:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.SetComp, ast.ListComp)):
                    exempt.add(id(arg))
    return exempt
