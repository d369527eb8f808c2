"""Report rendering: turn characterization results into paper-style text.

Everything the benchmarks print and EXPERIMENTS.md quotes is produced
here, so the numbers in documentation and benchmark output always come
from the same formatting code.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.congestion import CongestionReport
from repro.core.explorer import ExplorationResult
from repro.core.latency_profile import (
    IDEAL_DRAM_LATENCY,
    IDEAL_L2_LATENCY,
    LatencyProfile,
)
from repro.core.synergy import SynergyAnalysis
from repro.core.validation import paper_gains, paper_number
from repro.utils.ascii_plot import line_plot, sparkline
from repro.utils.tables import render_table


def render_figure1(profiles: Sequence[LatencyProfile], width: int = 78) -> str:
    """ASCII rendition of Figure 1 plus its per-benchmark observations."""
    series = {p.benchmark: p.series() for p in profiles}
    plot = line_plot(
        series,
        width=width,
        height=22,
        title="Fig. 1: Performance variation with increasing L1 miss latency",
        x_label="fixed L1 miss latency (cycles)",
        y_label="IPC (normalized to baseline)",
    )
    rows = []
    for p in profiles:
        intercept = p.intercept_latency()
        rows.append(
            [
                p.benchmark,
                f"{p.peak_normalized_ipc:.2f}x",
                p.plateau_latency(),
                f"{intercept:.0f}" if intercept is not None else ">max",
                f"{p.baseline_avg_miss_latency:.0f}",
            ]
        )
    table = render_table(
        [
            "benchmark",
            "peak norm. IPC",
            "plateau lat",
            "intercept lat",
            "measured baseline miss lat",
        ],
        rows,
        title=(
            f"Ideal latencies (Sec. II): L2 ~{IDEAL_L2_LATENCY} cy, "
            f"DRAM ~{IDEAL_DRAM_LATENCY} cy"
        ),
    )
    text = f"{plot}\n\n{table}"
    truncated = sorted(p.benchmark for p in profiles if p.truncated)
    if truncated:
        text += (
            f"\nwarning: {', '.join(truncated)} hit the cycle limit on at "
            "least one point; those IPCs are truncated lower bounds"
        )
    return text


#: Sparkline width cap for the timeline report.
_TIMELINE_WIDTH = 60


def render_timeline(timeline: Mapping) -> str:
    """ASCII sparkline view of a telemetry timeline.

    ``timeline`` is ``RunMetrics.extras['timeline']``, the timeline view
    of :meth:`repro.telemetry.WindowSampler.timeline`: one row per series,
    one character per window (long runs are bucket-averaged down to the
    display width), with the series' min/max printed alongside.
    """
    windows = timeline.get("windows", [])
    window_len = timeline.get("window", 0)
    if not windows:
        return "timeline: no windows captured (empty run)"
    dropped = timeline.get("dropped", 0)
    span = f"cycles {windows[0]['start']}..{windows[-1]['end']}"
    header = (
        f"Cycle-windowed telemetry: {len(windows)} windows x "
        f"{window_len} cycles ({span})"
    )
    if dropped:
        header += f"; {dropped} oldest windows dropped"

    rows: list[tuple[str, list[float], str]] = [
        ("IPC", [w["ipc"] for w in windows], "{:.2f}"),
    ]
    for family in timeline.get("queue_families", []):
        rows.append((
            f"{family} full",
            [w["queue_full_fraction"].get(family, 0.0) for w in windows],
            "{:.0%}",
        ))
    for family in windows[0].get("mshr_occupancy", {}):
        rows.append((
            f"{family} occupancy",
            [w["mshr_occupancy"].get(family, 0.0) for w in windows],
            "{:.0%}",
        ))
    rows.append((
        "dram bus util",
        [w["dram_bus_utilization"] for w in windows],
        "{:.0%}",
    ))

    label_width = max(len(label) for label, _, _ in rows)
    lines = [header]
    for label, values, fmt in rows:
        lo, hi = min(values), max(values)
        lines.append(
            f"{label:<{label_width}} |{sparkline(values, _TIMELINE_WIDTH)}| "
            f"[{fmt.format(lo)} .. {fmt.format(hi)}]"
        )
    lines.append(
        "(each column is one window; density ramp ' .:-=+*#%@' scales "
        "min..max per row)"
    )
    return "\n".join(lines)


#: Human-readable glosses for the cycle-accounting classes.
_CLASS_GLOSS: Mapping[str, str] = {
    "issue": "issued >= 1 instruction",
    "issue_starved": "ready warps, LD/ST queue full",
    "no_ready_warp": "all warps blocked on memory",
    "drained": "SM finished, GPU still running",
}

#: Human-readable glosses for the memory-pipeline stall causes.
_STALL_GLOSS: Mapping[str, str] = {
    "stall_mshr_full": "no free MSHR for a new miss",
    "stall_merge_full": "MSHR merge list full",
    "stall_missq_full": "L1 miss queue full (downstream back-pressure)",
}

#: Human-readable glosses for the blame stages.
_BLAME_GLOSS: Mapping[str, str] = {
    "dram": "DRAM sched queue / L2 miss queue full",
    "l2": "L2 access queue full",
    "icnt": "request crossbar delivery blocked",
    "l1": "L1 miss bandwidth (nothing below congested)",
    "mem_latency": "raw fill latency, no queueing",
}


def _share_rows(
    counts: Mapping[str, int],
    total: int,
    windows: Sequence[Mapping],
    window_field: str,
    gloss: Mapping[str, str],
) -> list[list[str]]:
    """Table rows: count, share of ``total`` and a per-window sparkline."""
    rows = []
    for key, count in counts.items():
        share = count / total if total else 0.0
        spark = ""
        if len(windows) > 1:
            series = []
            for w in windows:
                values = w.get(window_field, {})
                denominator = sum(values.values())
                series.append(
                    values.get(key, 0) / denominator if denominator else 0.0
                )
            spark = sparkline(series, _TIMELINE_WIDTH, lo=0.0, hi=1.0)
        rows.append(
            [key, f"{count}", f"{share:.1%}", spark, gloss.get(key, "")]
        )
    return rows


def render_profile(profile: Mapping) -> str:
    """Render a ``profile_plan`` document as the accounting tree."""
    windows = profile.get("windows", [])
    sm_cycles = profile.get("sm_cycles", 0)
    lines = [
        (
            f"Top-down cycle accounting: {profile['benchmark']} "
            f"({profile['config']}, scale {profile['scale']}, "
            f"seed {profile['seed']})"
        ),
        (
            f"  {profile['cycles']} cycles, {profile['instructions']} "
            f"instructions, IPC {profile['ipc']:.3f}"
            + (" [truncated]" if profile.get("truncated") else "")
        ),
    ]
    if profile.get("dropped"):
        lines.append(
            f"  over time: newest {len(windows)} windows of "
            f"{profile['window']} cycles; {profile['dropped']} oldest "
            "windows dropped (totals stay exact)"
        )
    lines.append("")

    classes = profile.get("classes", {})
    rows = _share_rows(classes, sm_cycles, windows, "classes", _CLASS_GLOSS)
    lines.append(render_table(
        ["class", "SM-cycles", "share", "over time", "meaning"],
        rows,
        title=f"Cycle classes (partition {sm_cycles} SM-cycles exactly; "
              f"conserved={str(profile.get('conserved', False)).lower()})",
        align="lrrll"))

    stalls = profile.get("stalls", {})
    stall_total = sum(stalls.values())
    lines.append("")
    if stall_total:
        blame = profile.get("blame", {})
        stall_rows = [
            row[:3] + [_STALL_GLOSS.get(row[0], "")]
            for row in _share_rows(stalls, stall_total, [], "stalls", {})
        ]
        lines.append(render_table(
            ["cause", "stall cycles", "share", "meaning"],
            stall_rows,
            title=f"Memory-pipeline stalls: {stall_total} SM-cycles "
                  "(back-pressure on the LD/ST pipe; overlaps the classes "
                  "above)",
            align="lrrl"))
        lines.append("")
        lines.append(render_table(
            ["blamed stage", "stall cycles", "share", "over time",
             "evidence"],
            _share_rows(blame, stall_total, windows, "blame", _BLAME_GLOSS),
            title="Blame chains (deepest congested stage per window, "
                  f"threshold "
                  f"{100 * profile.get('blame_threshold', 0.25):.0f}% full)",
            align="lrrll"))
        congestion = sum(
            blame.get(stage, 0) for stage in ("dram", "l2", "icnt")
        )
        lines.append(
            f"\n{congestion / stall_total:.0%} of stall cycles blamed on "
            "downstream congestion (paper Sec. III: L2 access queues full "
            f"{paper_number('sec3_l2_congested'):.0%}, DRAM sched queues "
            f"full {paper_number('sec3_dram_congested'):.0%} of usage "
            "lifetime)"
        )
    else:
        lines.append("Memory-pipeline stalls: none (compute-bound)")
    return "\n".join(lines)


def render_profile_diff(diff: Mapping) -> str:
    """Render a ``profile_diff`` document: the speedup, explained."""
    a, b = diff["a"], diff["b"]
    lines = [
        (
            f"Profile diff: {diff['benchmark']} "
            f"(scale {diff['scale']}, seed {diff['seed']}) — "
            f"{a['config']} -> {b['config']}"
        ),
        (
            f"  cycles {a['cycles']} -> {b['cycles']} "
            f"({diff['cycles_saved']:+d} saved), "
            f"IPC {a['ipc']:.3f} -> {b['ipc']:.3f} "
            f"(speedup {diff['speedup']:.2f}x)"
        ),
        "",
    ]
    saved = diff["sm_cycles_saved"]
    sections = (
        ("classes_reclaimed", "Cycle classes reclaimed "
         f"(sum to the {saved} saved SM-cycles)", _CLASS_GLOSS),
        ("stalls_reclaimed", "Stall cycles reclaimed by cause", _STALL_GLOSS),
        ("blame_reclaimed", "Stall cycles reclaimed by blamed stage",
         _BLAME_GLOSS),
    )
    for field, title, gloss in sections:
        rows = [
            [key, f"{value:+d}", gloss.get(key, "")]
            for key, value in diff[field].items()
        ]
        lines.append(render_table(
            [field.split("_")[0], "SM-cycles reclaimed", "meaning"],
            rows, title=title, align="lrl"))
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def render_congestion(report: CongestionReport) -> str:
    """Section III comparison against the paper's 46% / 39%."""
    lines = [
        report.to_table(),
        "",
        "Section III headline comparison:",
        (
            f"  L2 access queues full:  measured "
            f"{report.avg_l2_access_queue_full:.0%} of usage lifetime "
            f"(paper: {paper_number('sec3_l2_congested'):.0%})"
        ),
        (
            f"  DRAM sched queues full: measured "
            f"{report.avg_dram_queue_full:.0%} of usage lifetime "
            f"(paper: {paper_number('sec3_dram_congested'):.0%})"
        ),
    ]
    return "\n".join(lines)


def render_section_iv(
    result: ExplorationResult, synergy: SynergyAnalysis | None = None
) -> str:
    """Section IV speedup summary with paper-value comparison."""
    parts = [result.to_table(), ""]
    rows = []
    for label, paper in paper_gains().items():
        if label not in result.runs:
            continue
        measured = result.average_gain(label)
        rows.append([label, f"{measured:+.0%}", f"{paper:+.0%}"])
    parts.append(
        render_table(
            ["configuration", "measured avg gain", "paper avg gain"],
            rows,
            title="Average speedup over the suite vs paper",
        )
    )
    if synergy is not None:
        parts.append("")
        parts.append(synergy.to_table())
    truncated = result.truncated_points()
    if truncated:
        shown = ", ".join(f"{label}/{bench}" for label, bench in truncated[:8])
        if len(truncated) > 8:
            shown += f", ... ({len(truncated) - 8} more)"
        parts.append(
            f"warning: {len(truncated)} run(s) hit the cycle limit "
            f"({shown}); their speedups are computed from truncated metrics"
        )
    return "\n".join(parts)
