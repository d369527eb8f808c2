"""CSV / JSON export of run metrics and experiment results.

Every analysis object renders to text tables for the console; this module
exports the same data in machine-readable form so results can be plotted
or post-processed outside the library.

(Historically ``repro.utils.export``; moved here because the exporters
are views over ``repro.core`` result types — the static verifier's
layering pass (REP012) rejects ``utils`` importing upward into ``core``.
Only :func:`~repro.utils.export.write_text` stays in the old module;
import the exporters from here.)
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
from collections.abc import Iterable, Sequence
from typing import Any, NamedTuple

from pathlib import Path

from repro.core.explorer import ExplorationResult
from repro.core.latency_profile import LatencyProfile
from repro.core.metrics import STALL_CAUSE_KEYS, QueueMetrics, RunMetrics
from repro.errors import UsageError
from repro.utils.export import write_text

__all__ = [
    "Fragment",
    "exploration_to_dict",
    "exploration_to_json",
    "export_runs",
    "metrics_to_dict",
    "metrics_to_nested_dict",
    "profile_to_csv",
    "run_fragment",
    "runs_to_text",
    "write_text",
]


class Fragment(NamedTuple):
    """One run's share of :func:`runs_to_text` output in one format.

    ``body`` is the run's CSV data row or its JSON array element;
    ``header`` is the CSV header line of the run's columns (one shared
    string per column set) and empty for JSON.  A run's fragment
    depends on nothing but the run, so a caller may keep it and hand it
    back to :func:`runs_to_text` in place of the run.
    """

    header: str
    body: str


def run_fragment(run: RunMetrics, fmt: str) -> Fragment:
    """Render one run's :class:`Fragment` in ``fmt`` (``csv`` or ``json``)."""
    if fmt == "csv":
        row = metrics_to_dict(run)
        return Fragment(_csv_header(tuple(row)), _csv_line(row.values()))
    if fmt == "json":
        element = json.dumps(metrics_to_nested_dict(run), indent=2)
        # The array element sits one level deep: JSON strings hold no
        # raw newline, so indenting every line is the nested rendering.
        return Fragment("", "  " + element.replace("\n", "\n  "))
    raise UsageError(f"unknown export format {fmt!r}; use csv or json")


def runs_to_text(
    runs: Sequence[RunMetrics | Fragment], fmt: str = "csv"
) -> str:
    """Render ``runs`` in the stable export schema, as text.

    The single formatting authority behind every run-sequence export
    surface (``repro export``, campaign exports, the service's
    ``results`` endpoint): ``csv`` is the flat :func:`metrics_to_dict`
    column schema under the first run's header, ``json`` an array of
    nested :func:`metrics_to_nested_dict` documents.  The text is a
    header plus the join of per-run fragments; an item may be a run or
    the :func:`run_fragment` already rendered from one in ``fmt``, which
    is how the service reuses rows it has served.  Because all surfaces
    share this function, a daemon's streamed results are byte-identical
    to a local export of the same runs.
    """
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown export format {fmt!r}; use csv or json")
    fragments = [
        run if isinstance(run, Fragment) else run_fragment(run, fmt)
        for run in runs
    ]
    if not fragments:
        return "[]" if fmt == "json" else ""
    bodies = [fragment.body for fragment in fragments]
    if fmt == "json":
        return "[\n" + ",\n".join(bodies) + "\n]"
    return fragments[0].header + "".join(bodies)


def _csv_line(values: Iterable[Any]) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(values)
    return out.getvalue()


@functools.lru_cache(maxsize=8)
def _csv_header(columns: tuple[str, ...]) -> str:
    return _csv_line(columns)


def export_runs(
    runs: Sequence[RunMetrics], output: str | Path, fmt: str = "csv"
) -> Path:
    """Write ``runs`` to ``output`` in the stable export schema.

    File-writing wrapper over :func:`runs_to_text`; returns the path
    written.
    """
    return write_text(output, runs_to_text(runs, fmt))


def metrics_to_dict(metrics: RunMetrics) -> dict[str, Any]:
    """Flatten a RunMetrics into a one-level dict of scalars."""
    out: dict[str, Any] = {}
    for field in dataclasses.fields(metrics):
        value = getattr(metrics, field.name)
        if isinstance(value, QueueMetrics):
            out[f"{field.name}_full_fraction"] = value.full_fraction
            out[f"{field.name}_busy_fraction"] = value.busy_fraction
            out[f"{field.name}_rejections"] = value.rejections
            out[f"{field.name}_pushes"] = value.pushes
        elif field.name == "mem_stall_cycles_by_cause":
            # Column-stable: every cause key always present (zero-filled).
            for cause in STALL_CAUSE_KEYS:
                out[f"mem_stall_{cause[len('stall_'):]}_cycles"] = (
                    value.get(cause, 0)
                )
        elif isinstance(value, dict):
            continue  # extras: caller-defined, not schema-stable
        else:
            out[field.name] = value
    return out


def metrics_to_nested_dict(metrics: RunMetrics) -> dict[str, Any]:
    """Structured rendition of a RunMetrics, queue families kept nested.

    Unlike :func:`metrics_to_dict` (whose flat scalars suit CSV columns),
    each :class:`QueueMetrics` becomes a sub-object and ``extras`` rides
    along untouched, so JSON consumers see the full queue-family structure
    plus any sanitizer/telemetry payloads.
    """
    out: dict[str, Any] = {}
    for field in dataclasses.fields(metrics):
        value = getattr(metrics, field.name)
        if isinstance(value, QueueMetrics):
            out[field.name] = dataclasses.asdict(value)
        else:
            out[field.name] = value
    return out


def profile_to_csv(profile: LatencyProfile) -> str:
    """Figure 1 series as CSV (latency, ipc, normalized_ipc)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["benchmark", "latency", "ipc", "normalized_ipc"])
    for point in profile.points:
        writer.writerow(
            [profile.benchmark, point.latency, point.ipc, point.normalized_ipc]
        )
    return out.getvalue()


def exploration_to_dict(result: ExplorationResult) -> dict[str, Any]:
    """Section IV results as a JSON-ready structure."""
    return {
        "benchmarks": list(result.benchmarks),
        "configs": list(result.config_labels),
        "speedups": {
            label: result.speedups(label)
            for label in result.config_labels
            if label != "baseline"
        },
        "average_gains": {
            label: result.average_gain(label)
            for label in result.config_labels
            if label != "baseline"
        },
        "runs": {
            label: {
                bench: metrics_to_dict(metrics)
                for bench, metrics in by_bench.items()
            }
            for label, by_bench in result.runs.items()
        },
    }


def exploration_to_json(result: ExplorationResult, indent: int = 2) -> str:
    return json.dumps(exploration_to_dict(result), indent=indent)
