"""Orchestration for the whole-program static verifier.

One invocation parses every target file once, then runs:

1. the hygiene rules (REP001-005) per module;
2. the component-contract checker (REP006-008) over every Component
   subclass resolved through the import graph;
3. the determinism pass (REP009-011) per module;
4. the architecture-layering pass (REP012) over the module graph.

Inline suppressions (``# repro: noqa[REPxxx]`` or ``# noqa: REPxxx``)
then drop findings on their line, and the survivors are partitioned
against the baseline; only *active* findings fail the run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.static.baseline import (
    Baseline,
    BaselineEntry,
    load_default,
)
from repro.analysis.static.contracts import check_contracts
from repro.analysis.static.determinism import check_determinism
from repro.analysis.static.finding import Finding
from repro.analysis.static.hygiene import check_hygiene
from repro.analysis.static.layering import check_layering
from repro.analysis.static.modgraph import ModuleInfo, build_modules
from repro.analysis.static.output import render_json, render_sarif, render_text
from repro.analysis.static.suppress import is_suppressed
from repro.errors import UsageError


@dataclass(slots=True)
class StaticReport:
    """Everything one verifier run produced."""

    active: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return render_json(self.active, self.baselined, self.stale)
        if fmt == "sarif":
            return render_sarif(self.active, self.baselined, self.stale)
        return render_text(self.active, self.baselined, self.stale)


def _collect_files(paths: list[str]) -> list[Path]:
    """Python files under ``paths``; a walk skips ``fixtures`` below its root."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not _skipped(p.relative_to(path).parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise UsageError(f"{raw}: not a python file or directory")
    return files


def _skipped(parts: tuple[str, ...]) -> bool:
    return any(
        part in ("__pycache__", "fixtures") or part.endswith(".egg-info")
        for part in parts
    )


def analyze_paths(
    paths: list[str], *, baseline: Baseline | None = None
) -> StaticReport:
    """Run every pass over ``paths`` and partition against ``baseline``."""
    return analyze_modules(build_modules(_collect_files(paths)), baseline)


def analyze_modules(
    modules: list[ModuleInfo], baseline: Baseline | None = None
) -> StaticReport:
    """Run every pass over parsed ``modules``; see :func:`analyze_paths`."""
    raw: list[Finding] = []
    for module in modules:
        raw.extend(check_hygiene(module))
        raw.extend(check_determinism(module))
    raw.extend(check_contracts(modules))
    raw.extend(check_layering(modules))

    lines_by_path = {m.path: m.source_lines for m in modules}
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        source_lines = lines_by_path.get(finding.path, [])
        if is_suppressed(source_lines, finding.line, finding.rule):
            suppressed += 1
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    report = StaticReport(suppressed=suppressed, files_scanned=len(modules))
    if baseline is None:
        baseline = Baseline.empty()
    report.active, report.baselined, report.stale = baseline.split(kept)
    return report


def run_static(
    paths: list[str],
    *,
    fmt: str = "text",
    output: str | None = None,
    baseline_path: str | None = None,
    update_baseline: bool = False,
    no_baseline: bool = False,
) -> int:
    """CLI body for ``repro lint``; returns the process exit code."""
    if not paths:
        paths = ["src"]
    baseline = Baseline.empty() if no_baseline else load_default(baseline_path)
    report = analyze_paths(paths, baseline=baseline)

    if update_baseline:
        target = baseline.path or Path(
            baseline_path or ".repro-static-baseline.json"
        )
        count = baseline.save(
            target, report.active + report.baselined
        )
        print(f"baseline: wrote {count} entr(y/ies) to {target}")
        return 0

    rendered = report.render(fmt)
    if output is not None:
        Path(output).write_text(rendered, encoding="utf-8")
        summary = render_text(report.active, report.baselined, report.stale)
        if summary:
            print(summary)
        print(f"wrote {fmt} report to {output}")
    elif rendered:
        print(rendered)
    if report.exit_code == 0 and fmt == "text" and output is None:
        print(
            f"static verifier: {report.files_scanned} file(s) clean "
            f"({len(report.baselined)} baselined, "
            f"{report.suppressed} suppressed inline)",
            file=sys.stderr,
        )
    return report.exit_code
