"""Types and helpers shared by the benchmark's workloads."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

#: The model's own per-layer counts, from ``RunMetrics`` over one pass's
#: runs: ``sum`` for event counts, ``mean`` for rates and fractions.
#: These are simulated-time numbers; a speed-only change leaves them
#: identical.
MODEL_COUNTS: dict[str, tuple[str, str, str]] = {
    "cores.issue_cycles": ("sum", "issue_cycles", "count"),
    "cores.no_ready_warp_cycles": ("sum", "no_ready_warp_cycles", "count"),
    "cache.l1.misses": ("sum", "l1_miss_count", "count"),
    "cache.l1.mshr_stall_cycles": ("sum", "l1_mshr_stall_cycles", "count"),
    "icnt.req_util": ("mean", "req_xbar_utilization", "frac"),
    "cache.l2.hit_rate": ("mean", "l2_hit_rate", "frac"),
    "cache.l2.accessq_full_frac": ("mean", "l2_accessq.full_fraction", "frac"),
    "dram.schedq_full_frac": ("mean", "dram_schedq.full_fraction", "frac"),
    "dram.row_hit_rate": ("mean", "dram_row_hit_rate", "frac"),
    "dram.reads": ("sum", "dram_reads", "count"),
}


def _field(metrics: Any, path: str) -> float:
    for part in path.split("."):
        metrics = getattr(metrics, part)
    return metrics


def model_counts(runs: list[Any]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, (how, path, _unit) in MODEL_COUNTS.items():
        values = [_field(m, path) for m in runs]
        total = sum(values)
        out[name] = total / len(values) if how == "mean" and values else total
    return out


@dataclass
class PassResult:
    """One timed pass of a workload."""

    #: Host seconds of the pass (the driver call or the client's ops).
    wall_s: float
    #: Host milliseconds of each operation (job or round trip).
    op_ms: list[float]
    #: Simulated cycles the pass produced.
    sim_cycles: int
    attempted: int
    failed: int
    model: dict[str, float]
    #: Human-readable failed checks.
    checks: list[str] = field(default_factory=list)
    #: Per-class round-trip milliseconds (service workload only).
    by_class: dict[str, list[float]] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 1].

    Interpolation keeps the estimate continuous where the samples have a
    gap, e.g. between two job sizes or two request classes.
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
