"""REP009-REP011: the determinism pass.

The runner's ``--jobs N`` byte-identity guarantee (PR 3) and the result
cache's content-addressed keys both assume a stronger property than "same
seed, same metrics": *every* observable ordering — report rows, dispatch
order, accumulated floats — must be reproducible across processes and
interpreter runs.  Three bug classes silently break it:

REP009
    Iterating a ``set``/``frozenset`` expression (literal, constructor
    call, comprehension, or set-algebra result).  Set iteration order
    depends on element hashes and insertion history; under hash
    randomization or across processes it varies, so any metric, report
    line or dispatch decision fed by it diverges.  Wrap the iterable in
    ``sorted(...)`` — the fix the checker recognizes.

REP010
    ``id()``-keyed containers and membership tests.  CPython ids are
    addresses: stable within one process, different in every worker of a
    ``--jobs N`` pool, so an id that reaches a key, an ordering or an
    output is unreproducible by construction.

REP011
    Float reductions (``sum``, ``math.fsum``, ``statistics.mean`` /
    ``fmean``) over unordered iterables in the hot-path packages.  Float
    addition is not associative; summing a set accumulates in arbitrary
    order and the low bits of the result — which the byte-identity tests
    compare — differ run to run.

The pass runs per module; a simple single-assignment local-name analysis
lets it track ``s = set(...)`` followed by ``for x in s`` within one
function body.
"""

from __future__ import annotations

import ast

from repro.analysis.static.hygiene import in_hot_package
from repro.analysis.static.finding import Finding
from repro.analysis.static.modgraph import ModuleInfo

_SET_CONSTRUCTORS = {"set", "frozenset"}
_ORDERING_CALLS = {"sorted"}
_REDUCTIONS = {"sum", "fsum", "mean", "fmean"}
_KEYED_METHODS = {"add", "get", "setdefault", "pop", "discard", "remove",
                  "append"}
#: Consumers whose result does not depend on iteration order; a generator
#: feeding one of these is exempt from REP009 (float ``sum`` order
#: sensitivity is REP011's concern, scoped to the hot-path packages).
_ORDER_INSENSITIVE = {"any", "all", "min", "max", "len", "set", "frozenset",
                      "sorted", "sum", "fsum", "mean", "fmean"}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )


class _FunctionScope:
    """Names bound exactly once to a set expression in one function body."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.reassigned: set[str] = set()

    def note_binding(self, name: str, is_set: bool) -> None:
        if name in self.set_names or name in self.reassigned:
            self.set_names.discard(name)
            self.reassigned.add(name)
        elif is_set:
            self.set_names.add(name)
        else:
            self.reassigned.add(name)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo, hot: bool) -> None:
        self.module = module
        self.hot = hot
        self.findings: list[Finding] = []
        self._scopes: list[_FunctionScope] = []
        #: (line, col) of generator expressions feeding order-insensitive
        #: consumers; exempt from REP009.
        self._order_free: set[tuple[int, int]] = set()

    # -- plumbing ------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(self.module.finding(node, rule, message))

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference")
                and self._is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name) and self._scopes:
            return node.id in self._scopes[-1].set_names
        return False

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append(_FunctionScope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scopes.append(_FunctionScope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._scopes:
            is_set = self._is_set_expr(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].note_binding(target.id, is_set)
        self._check_id_keys_in_dict(node.value)
        self.generic_visit(node)

    # -- REP009: unordered iteration -----------------------------------
    def _check_iteration(self, iterable: ast.expr) -> None:
        node = iterable
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _ORDERING_CALLS:
                return  # sorted(...) fixes the order by definition
            if name in ("enumerate", "list", "tuple", "reversed") and node.args:
                self._check_iteration(node.args[0])
                return
        if self._is_set_expr(node):
            self._flag(
                node, "REP009",
                "iteration over an unordered set expression; wrap it in "
                "sorted(...) so downstream metrics and dispatch order are "
                "deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_generators(
        self, generators: list[ast.comprehension]
    ) -> None:
        for comp in generators:
            self._check_iteration(comp.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if (node.lineno, node.col_offset) not in self._order_free:
            self._visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    # Building a set FROM a set is order-insensitive; don't descend into
    # the generators of a SetComp for REP009 purposes, but keep walking
    # for nested constructs.
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    # -- REP010: id()-keyed containers ---------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_id_call(node.slice):
            self._flag(
                node, "REP010",
                "id() used as a container key; object addresses differ "
                "across worker processes and break byte-identical output",
            )
        self.generic_visit(node)

    def _check_id_keys_in_dict(self, node: ast.expr) -> None:
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and _is_id_call(key):
                    self._flag(
                        key, "REP010",
                        "id() used as a dict-literal key; object addresses "
                        "differ across worker processes",
                    )

    def visit_Dict(self, node: ast.Dict) -> None:
        self._check_id_keys_in_dict(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            if _is_id_call(node.left):
                self._flag(
                    node, "REP010",
                    "id()-based membership test; object addresses differ "
                    "across worker processes",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = _call_name(node)
        if callee in _ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._order_free.add((arg.lineno, arg.col_offset))
        if isinstance(func, ast.Attribute) and func.attr in _KEYED_METHODS:
            for arg in node.args:
                if _is_id_call(arg):
                    self._flag(
                        node, "REP010",
                        f"id() passed to .{func.attr}(); address-keyed "
                        "bookkeeping breaks cross-process determinism",
                    )
                    break
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._flag(
                    node, "REP010",
                    "sort key=id orders by object address; order differs "
                    "across worker processes",
                )
        # REP011: float reductions over unordered iterables (hot paths).
        if self.hot:
            name = _call_name(node)
            if name in _REDUCTIONS and node.args:
                target = node.args[0]
                if isinstance(target, ast.GeneratorExp):
                    if any(
                        self._is_set_expr(comp.iter)
                        for comp in target.generators
                    ):
                        self._flag(
                            node, "REP011",
                            f"{name}() over a generator driven by a set; "
                            "float accumulation order is arbitrary — sort "
                            "the iterable first",
                        )
                elif self._is_set_expr(target):
                    self._flag(
                        node, "REP011",
                        f"{name}() over an unordered set; float "
                        "accumulation order is arbitrary — sort the "
                        "iterable first",
                    )
        self.generic_visit(node)


def check_determinism(module: ModuleInfo) -> list[Finding]:
    """Run REP009-REP011 over one parsed module."""
    visitor = _DeterminismVisitor(module, in_hot_package(module))
    visitor.visit(module.tree)
    return visitor.findings
