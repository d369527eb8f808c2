"""REP001-REP005: per-module hygiene rules.

The simulator's credibility rests on properties no general-purpose linter
checks: determinism (same seed, same run), loud protocol failures (no
check that vanishes under ``python -O``), a single catchable exception
hierarchy, and memory-lean hot-path objects.  Each rule below encodes one
of those contracts as a walk over the module's parsed tree:

========  ==============================================================
code      contract
========  ==============================================================
REP001    no unseeded RNG or wall-clock reads in simulator code: global
          ``random.*`` functions share hidden mutable state and
          ``time.time()``-style calls leak host time into the model;
          both break run-to-run determinism.  Seeded ``random.Random``
          instances are the sanctioned source of randomness.
REP002    no ``assert`` statements: assertions are stripped under
          ``python -O``, so a protocol violation guarded by one can pass
          silently in optimized runs.  Raise
          :class:`~repro.errors.SimulationError` instead.
REP003    every raised exception derives from
          :class:`~repro.errors.ReproError` (``NotImplementedError`` for
          abstract methods excepted), so ``except ReproError`` reliably
          separates modelled failures from genuine bugs.
REP004    dataclasses in hot-path packages (``mem``, ``cache``, ``dram``,
          ``icnt``, ``cores``) declare ``slots=True``: per-instance
          ``__dict__`` costs memory and attribute-lookup time exactly
          where millions of objects live.
REP005    no attribute assignment through a config object: the
          ``GPUConfig`` tree is frozen, and code that *appears* to
          mutate it (``self._config.l1.assoc = 2``) either raises at
          runtime or, worse, mutates shared state if a sub-config is
          ever unfrozen.  Use ``dataclasses.replace``.
========  ==============================================================

Path profiles: files under a ``tests`` directory are exempt from REP002 —
``assert`` is pytest's assertion mechanism (and pytest rewrites it, so
``python -O`` stripping is not a concern there); every other rule still
applies to test code.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from repro import errors as _errors
from repro.analysis.static.finding import Finding
from repro.analysis.static.modgraph import ModuleInfo, dotted_name
from repro.errors import ReproError

#: Packages whose dataclasses must declare slots (REP004) and whose float
#: reductions must be order-stable (REP011).
HOT_PACKAGES = ("mem", "cache", "dram", "icnt", "cores")

#: Module-level ``random`` attributes that are allowed (seeded generators).
_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: Wall-clock call chains flagged by REP001, as dotted names.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: Names from the ``random`` module considered unseeded global-state RNG.
_RANDOM_FUNCTIONS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}

#: Exception names always acceptable to raise (REP003).
_RAISE_ALLOWED_EXTRA = {"NotImplementedError"}

#: Variable names through which code reaches a (frozen) config object.
_CONFIG_NAMES = {"config", "cfg", "_config"}

_CONFIG_STORE = (
    "attribute assignment through a config object; configs are frozen — "
    "build a new one with dataclasses.replace"
)


def in_hot_package(module: ModuleInfo) -> bool:
    """Whether ``module`` lives in one of the :data:`HOT_PACKAGES`."""
    parts = (module.name or "").split(".")
    return len(parts) > 1 and parts[1] in HOT_PACKAGES


def _repro_error_names() -> frozenset[str]:
    """Names of every ReproError subclass defined in :mod:`repro.errors`."""
    return frozenset(
        name
        for name, obj in vars(_errors).items()
        if isinstance(obj, type) and issubclass(obj, ReproError)
    )


class _HygieneVisitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.check_asserts = "tests" not in Path(module.path).parts
        self.findings: list[Finding] = []
        #: Names bound by ``from random import X``.
        self.random_names: set[str] = set()
        #: Local classes whose bases resolve into the ReproError tree.
        self.allowed_raises = set(_repro_error_names()) | _RAISE_ALLOWED_EXTRA

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(self.module.finding(node, rule, message))

    # -- imports (REP001 support) --------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_FUNCTIONS:
                    self.random_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- REP001: nondeterminism ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            head, _, tail = dotted.partition(".")
            if head == "random" and tail and tail not in _RANDOM_ALLOWED:
                self._flag(
                    node, "REP001",
                    f"call to global RNG random.{tail}; use a seeded "
                    "random.Random instance",
                )
            elif dotted in _WALL_CLOCK:
                self._flag(
                    node, "REP001",
                    f"wall-clock read {dotted}(); simulator code must not "
                    "depend on host time",
                )
            elif not tail and head in self.random_names:
                self._flag(
                    node, "REP001",
                    f"call to global RNG {head}() (imported from random); "
                    "use a seeded random.Random instance",
                )
        self.generic_visit(node)

    # -- REP002: bare assert -------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        if self.check_asserts:
            self._flag(
                node, "REP002",
                "assert vanishes under python -O; raise SimulationError (or "
                "another ReproError) for protocol violations",
            )
        self.generic_visit(node)

    # -- REP003: exception hierarchy -----------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base_names = {
            name for base in node.bases
            if (name := dotted_name(base)) is not None
        }
        if any(
            name.rpartition(".")[2] in self.allowed_raises
            for name in base_names
        ):
            self.allowed_raises.add(node.name)
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = dotted_name(exc) if exc is not None else None
        if name is not None:
            short = name.rpartition(".")[2]
            if short not in self.allowed_raises:
                obj = getattr(builtins, short, None)
                if isinstance(obj, type) and issubclass(obj, BaseException):
                    self._flag(
                        node, "REP003",
                        f"raises builtin {short}; deliberate failures must "
                        "derive from ReproError",
                    )
        self.generic_visit(node)

    # -- REP004: hot-path dataclass slots ------------------------------
    def check_dataclass_slots(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if dotted_name(target) not in ("dataclass", "dataclasses.dataclass"):
                continue
            if isinstance(decorator, ast.Call) and any(
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            ):
                return
            self._flag(
                node, "REP004",
                f"hot-path dataclass {node.name} must declare slots=True",
            )
            return

    # -- REP005: frozen-config mutation --------------------------------
    def _check_config_store(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        # Walk the object being stored *into*; the final attr is the
        # binding itself (``self.config = ...`` is allowed).
        node = target.value
        while isinstance(node, ast.Attribute):
            if node.attr in _CONFIG_NAMES:
                self._flag(target, "REP005", _CONFIG_STORE)
                return
            node = node.value
        if isinstance(node, ast.Name) and node.id in _CONFIG_NAMES:
            self._flag(target, "REP005", _CONFIG_STORE)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_config_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_config_store(node.target)
        self.generic_visit(node)


def check_hygiene(module: ModuleInfo) -> list[Finding]:
    """Run REP001-REP005 over one parsed module."""
    visitor = _HygieneVisitor(module)
    visitor.visit(module.tree)
    if in_hot_package(module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                visitor.check_dataclass_slots(node)
    return visitor.findings
