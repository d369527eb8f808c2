"""Module parsing and import-graph construction for the whole-program passes.

The verifier's cross-file passes (component contracts, layering) need two
things no per-file AST walk provides: a *module identity* for every file
(``src/repro/cache/l1.py`` is ``repro.cache.l1``) and the *module-level
import edges* between them.  This module parses each file once, derives
its dotted name from the last ``repro`` directory on its path (so fixture
trees shaped like ``.../repro/<pkg>/bad.py`` resolve exactly like the real
package), and records:

* every module-level import edge, with the source line — function-local
  imports are deliberate lazy deferrals and create no import-time
  dependency, and imports under ``if TYPE_CHECKING:`` are erased at
  runtime, so neither contributes an edge;
* every top-level class definition, with its base-class names resolved
  through the module's import aliases to fully-qualified dotted names, so
  the contract checker can walk subclass chains across files without
  executing anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.static.finding import Finding
from repro.errors import UsageError


@dataclass(slots=True)
class ImportEdge:
    """One module-level import: ``module`` imports ``target``.

    For ``from X import a, b`` statements, ``names`` carries the imported
    names so the layering pass can refine the edge: ``from repro import
    errors`` is an import *of the errors submodule*, not of the root
    package — the distinction between attribute and submodule imports is
    resolved against the scanned module set (falling back to the layer
    table for modules outside the scan).
    """

    target: str
    line: int
    names: tuple[str, ...] = ()


@dataclass(slots=True)
class ClassInfo:
    """One top-level class definition with resolved base names."""

    qualname: str  # e.g. ``repro.cores.sm.SM``
    name: str
    line: int
    #: Fully-qualified base names where resolvable, raw dotted names
    #: otherwise (builtins, stdlib bases).
    bases: tuple[str, ...]
    node: ast.ClassDef


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source file."""

    path: str
    name: str | None  # dotted module name; None outside any ``repro`` tree
    tree: ast.Module
    source_lines: list[str]
    imports: list[ImportEdge] = field(default_factory=list)
    classes: list[ClassInfo] = field(default_factory=list)
    #: local name -> fully-qualified dotted name, from import statements.
    aliases: dict[str, str] = field(default_factory=dict)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A ``rule`` finding at ``node``, snippet taken from its line."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self.source_lines):
            snippet = self.source_lines[line - 1].strip()
        return Finding(rule, self.path, line, col, message, snippet)


def module_name_for(path: str) -> str | None:
    """Dotted module name for ``path``, anchored at its ``repro`` directory.

    ``src/repro/cache/l1.py`` -> ``repro.cache.l1``;
    ``tests/fixtures/static/repro/cache/bad.py`` -> ``repro.cache.bad``;
    a path containing no ``repro`` directory has no module identity.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    anchor = -1
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor < 0:
        return None
    dotted = parts[anchor:]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def _is_type_checking_test(test: ast.expr) -> bool:
    """Whether ``test`` is the conventional ``TYPE_CHECKING`` guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_relative(module: str | None, level: int, base: str | None) -> str | None:
    """Absolute dotted target of a ``from . import x``-style statement."""
    if module is None:
        return None
    package_parts = module.split(".")[:-1]  # the module's own package
    if level - 1 > len(package_parts):
        return None
    anchor = package_parts[: len(package_parts) - (level - 1)]
    if base:
        anchor = anchor + base.split(".")
    return ".".join(anchor) if anchor else None


class _ModuleScanner:
    """Collects imports, aliases and classes from one module's AST."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info

    def scan(self) -> None:
        self._scan_body(self.info.tree.body)
        for statement in self.info.tree.body:
            if isinstance(statement, ast.ClassDef):
                self._record_class(statement)

    # -- module-level imports ------------------------------------------
    def _scan_body(self, body: list[ast.stmt]) -> None:
        for statement in body:
            if isinstance(statement, ast.Import):
                self._record_import(statement)
            elif isinstance(statement, ast.ImportFrom):
                self._record_import_from(statement)
            elif isinstance(statement, ast.If):
                if _is_type_checking_test(statement.test):
                    # Erased at runtime: aliases still resolve names used
                    # in annotations, but no import edge is recorded.
                    self._collect_aliases_only(statement.body)
                    self._scan_body(statement.orelse)
                else:
                    self._scan_body(statement.body)
                    self._scan_body(statement.orelse)
            elif isinstance(statement, ast.Try):
                self._scan_body(statement.body)
                for handler in statement.handlers:
                    self._scan_body(handler.body)
                self._scan_body(statement.orelse)
                self._scan_body(statement.finalbody)

    def _collect_aliases_only(self, body: list[ast.stmt]) -> None:
        for statement in body:
            if isinstance(statement, ast.Import):
                self._record_import(statement, edge=False)
            elif isinstance(statement, ast.ImportFrom):
                self._record_import_from(statement, edge=False)

    def _record_import(self, node: ast.Import, *, edge: bool = True) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.info.aliases[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.info.aliases[alias.asname] = alias.name
            if edge and alias.name.split(".")[0] == "repro":
                self.info.imports.append(ImportEdge(alias.name, node.lineno))

    def _record_import_from(
        self, node: ast.ImportFrom, *, edge: bool = True
    ) -> None:
        if node.level:
            target = _resolve_relative(self.info.name, node.level, node.module)
        else:
            target = node.module
        if target is None:
            return
        names: list[str] = []
        for alias in node.names:
            if alias.name == "*":
                continue
            names.append(alias.name)
            local = alias.asname or alias.name
            self.info.aliases[local] = f"{target}.{alias.name}"
        if edge and target.split(".")[0] == "repro":
            self.info.imports.append(
                ImportEdge(target, node.lineno, tuple(names))
            )

    # -- classes -------------------------------------------------------
    def _record_class(self, node: ast.ClassDef) -> None:
        bases: list[str] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            bases.append(self._qualify(dotted))
        qualname = (
            f"{self.info.name}.{node.name}"
            if self.info.name
            else f"{self.info.path}::{node.name}"
        )
        self.info.classes.append(
            ClassInfo(qualname, node.name, node.lineno, tuple(bases), node)
        )
        # Locally-defined classes are referencable as bases further down.
        self.info.aliases.setdefault(node.name, qualname)

    def _qualify(self, dotted: str) -> str:
        head, _, tail = dotted.partition(".")
        resolved = self.info.aliases.get(head)
        if resolved is None:
            return dotted
        return f"{resolved}.{tail}" if tail else resolved


def dotted_name(node: ast.expr) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c`` (None if dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def parse_source(source: str, path: str) -> ModuleInfo:
    """Parse one module's text (raises UsageError on bad syntax)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise UsageError(
            f"{path}: cannot analyze, syntax error: {exc}"
        ) from exc
    info = ModuleInfo(
        path=path,
        name=module_name_for(path),
        tree=tree,
        source_lines=source.splitlines(),
    )
    _ModuleScanner(info).scan()
    return info


def build_modules(files: list[Path]) -> list[ModuleInfo]:
    """Parse every file once, in deterministic path order."""
    return [
        parse_source(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(files)
    ]
