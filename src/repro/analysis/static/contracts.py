"""REP006-REP008: the Component wake-hint and hook contracts, statically.

The engine's event-horizon fast-forward (PR 4) is only sound when every
:class:`~repro.sim.component.Component` honors three contracts that no
runtime test can exhaustively cover — a subclass added later silently
opts the whole simulation out (a ``None``-returning ``next_wake``) or,
worse, diverges (a float horizon, an unchained ``set_fast_mode``).  This
pass resolves every Component subclass across the scanned tree through
the import graph — no code is executed — and checks:

REP006
    ``next_wake`` overrides keep the base signature ``(self, now)`` and
    every ``return`` yields an allowed form: ``None``, ``WAKE_NEVER``, or
    an integer cycle expression.  Expressions that are provably not
    integers (string/float/bool constants, comparisons, boolean
    operators, f-strings, containers, true division) are flagged;
    anything unprovable is conservatively allowed.

REP007
    ``set_fast_mode`` overrides call ``super().set_fast_mode(...)``
    somewhere in their body, so mode propagation composes down arbitrary
    subclass chains even as the base implementation evolves.

REP008
    Observation hook overrides (``queues``, ``mshrs``, ``inflight``,
    ``counters``, plus ``step``, ``finalize``, ``fast_forward``,
    ``is_idle``) keep the base-class arity: the sanitizer and the
    telemetry probes call them polymorphically, so an extra
    required parameter is a guaranteed runtime ``TypeError`` on an
    opt-in diagnostic path that default test runs never execute.
"""

from __future__ import annotations

import ast

from repro.analysis.static.finding import Finding
from repro.analysis.static.modgraph import ClassInfo, ModuleInfo

#: Fully-qualified name of the contract's root class.
COMPONENT_QUALNAME = "repro.sim.component.Component"

#: Hook name -> required parameter names after ``self`` (REP008).
_HOOK_SIGNATURES: dict[str, tuple[str, ...]] = {
    "queues": (),
    "mshrs": (),
    "inflight": (),
    "counters": (),
    "is_idle": (),
    "step": ("now",),
    "finalize": ("now",),
    "fast_forward": ("cycles",),
}


def component_subclasses(modules: list[ModuleInfo]) -> list[tuple[ModuleInfo, ClassInfo]]:
    """Every scanned class whose base chain reaches the Component root."""
    by_qualname: dict[str, ClassInfo] = {}
    owners: dict[str, ModuleInfo] = {}
    for module in modules:
        for cls in module.classes:
            by_qualname[cls.qualname] = cls
            owners[cls.qualname] = module

    memo: dict[str, bool] = {COMPONENT_QUALNAME: True}

    def reaches_root(qualname: str, trail: frozenset[str]) -> bool:
        cached = memo.get(qualname)
        if cached is not None:
            return cached
        if qualname in trail:
            return False  # inheritance cycle in broken code; not our rule
        cls = by_qualname.get(qualname)
        if cls is None:
            memo[qualname] = False
            return False
        result = any(
            reaches_root(base, trail | {qualname}) for base in cls.bases
        )
        memo[qualname] = result
        return result

    found: list[tuple[ModuleInfo, ClassInfo]] = []
    for module in modules:
        for cls in module.classes:
            if cls.qualname == COMPONENT_QUALNAME:
                continue
            if reaches_root(cls.qualname, frozenset()):
                found.append((module, cls))
    return found


def _positional_params(node: ast.FunctionDef) -> list[str]:
    args = node.args
    return [arg.arg for arg in args.posonlyargs + args.args]


def _has_star_args(node: ast.FunctionDef) -> bool:
    return node.args.vararg is not None or node.args.kwarg is not None


def _signature_problem(
    node: ast.FunctionDef, expected_after_self: tuple[str, ...]
) -> str | None:
    """Human-readable arity mismatch, or None when the override conforms."""
    if _has_star_args(node):
        return None  # *args/**kwargs forwards anything; always callable
    params = _positional_params(node)
    required = [
        param
        for index, param in enumerate(params)
        if index < len(params) - len(node.args.defaults)
    ]
    base_arity = 1 + len(expected_after_self)  # self + contract params
    if len(required) > base_arity:
        extra = ", ".join(required[base_arity:])
        return (
            f"takes extra required parameter(s) {extra}; base signature is "
            f"(self{''.join(', ' + p for p in expected_after_self)})"
        )
    if len(params) < base_arity:
        want = ", ".join(("self", *expected_after_self))
        return f"takes too few parameters; base signature is ({want})"
    return None


class _NextWakeReturns(ast.NodeVisitor):
    """Collects disallowed return expressions inside one next_wake body."""

    def __init__(self) -> None:
        self.bad: list[tuple[ast.AST, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs have their own, unrelated returns

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._check(node.value)

    def _check(self, expr: ast.expr) -> None:
        verdict = _classify_wake_expr(expr)
        if verdict is not None:
            self.bad.append((expr, verdict))


def _classify_wake_expr(expr: ast.expr) -> str | None:
    """Why ``expr`` is not an allowed next_wake value; None when allowed."""
    if isinstance(expr, ast.Constant):
        value = expr.value
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            return f"returns non-integer constant {value!r}"
        return None
    if isinstance(expr, ast.IfExp):
        return _classify_wake_expr(expr.body) or _classify_wake_expr(expr.orelse)
    if isinstance(expr, (ast.Compare, ast.BoolOp)):
        return "returns a boolean expression, not a cycle number"
    if isinstance(expr, ast.JoinedStr):
        return "returns an f-string, not a cycle number"
    if isinstance(expr, (ast.List, ast.Tuple, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return "returns a container, not a cycle number"
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Div):
            return (
                "returns a true-division result (float); use // for "
                "integer cycle arithmetic"
            )
        return _classify_wake_expr(expr.left) or _classify_wake_expr(expr.right)
    # Names, attributes, calls, subscripts, unary ops: unprovable — allow.
    return None


def check_contracts(modules: list[ModuleInfo]) -> list[Finding]:
    """Run REP006-REP008 over every Component subclass in ``modules``."""
    findings: list[Finding] = []

    def flag(module: ModuleInfo, node: ast.AST, rule: str, message: str) -> None:
        findings.append(module.finding(node, rule, message))

    for module, cls in component_subclasses(modules):
        for item in cls.node.body:
            if not isinstance(item, ast.FunctionDef):
                if isinstance(item, ast.AsyncFunctionDef) and (
                    item.name == "next_wake"
                    or item.name == "set_fast_mode"
                    or item.name in _HOOK_SIGNATURES
                ):
                    flag(
                        module, item, "REP008",
                        f"{cls.name}.{item.name} is async; Component hooks "
                        "are called synchronously by the engine",
                    )
                continue
            if item.name == "next_wake":
                problem = _signature_problem(item, ("now",))
                if problem is not None:
                    flag(
                        module, item, "REP006",
                        f"{cls.name}.next_wake {problem}",
                    )
                returns = _NextWakeReturns()
                for statement in item.body:
                    returns.visit(statement)
                for expr, why in returns.bad:
                    flag(
                        module, expr, "REP006",
                        f"{cls.name}.next_wake {why}; allowed forms are "
                        "None, WAKE_NEVER, or an integer cycle expression",
                    )
            elif item.name == "set_fast_mode":
                problem = _signature_problem(item, ("enabled",))
                if problem is not None:
                    flag(
                        module, item, "REP007",
                        f"{cls.name}.set_fast_mode {problem}",
                    )
                if not _calls_super(item, "set_fast_mode"):
                    flag(
                        module, item, "REP007",
                        f"{cls.name}.set_fast_mode never calls "
                        "super().set_fast_mode(...); mode propagation must "
                        "compose down subclass chains",
                    )
            elif item.name in _HOOK_SIGNATURES:
                problem = _signature_problem(item, _HOOK_SIGNATURES[item.name])
                if problem is not None:
                    flag(
                        module, item, "REP008",
                        f"{cls.name}.{item.name} {problem}",
                    )
    return findings


def _calls_super(func: ast.FunctionDef, method: str) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False
