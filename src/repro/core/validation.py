"""Self-validation: the paper's claims as named, runnable checks.

`validation_plan` is the full experiment battery — the Figure 1 sweep,
the Section III congestion study and the Section IV matrix as one batch,
whose shared baseline runs execute once — and its fold evaluates every
qualitative claim the reproduction stands on — the same assertions
the benchmark harness makes, packaged as a structured report so CI
pipelines and the CLI (``repro validate``) can consume them.

Checks (all *shape* claims, per the reproduction brief):

=====================  ==================================================
check                  paper claim
=====================  ==================================================
fig1_curves_fall       IPC decreases with fixed L1 miss latency
fig1_compute_flat      the compute-bound benchmark's curve is ~flat
fig1_intercepts_high   effective baseline latencies >> ideal L2 latency
sec3_l2_congested      L2 access queues full a substantial fraction
sec3_dram_congested    DRAM scheduler queues full a substantial fraction
sec4_l2_dominates      L2-level scaling >> DRAM-level >> L1-level
sec4_superadditive     both combined scalings exceed the sum of parts
sec4_l1_backfires      isolated L1 scaling degrades >= 1 benchmark
sec4_cache_beats_dram  L1+L2 scaling beats high-bandwidth DRAM alone
=====================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.congestion import CongestionReport, congestion_plan
from repro.core.explorer import ExplorationResult, exploration_plan
from repro.core.latency_profile import (
    IDEAL_L2_LATENCY,
    LatencyProfile,
    latency_profile_plan,
)
from repro.core.synergy import analyze_synergy
from repro.runner import BatchRunner
from repro.runner.plan import Plan, combine, run_plan
from repro.sim.config import GPUConfig
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE

#: Benchmarks treated as memory-intensive for the Figure 1 checks.
MEMORY_BOUND: tuple[str, ...] = ("cfd", "dwt2d", "nn", "sc", "lbm", "ss")
COMPUTE_BOUND = "leukocyte"


@dataclass(frozen=True)
class Check:
    """One named claim with its verdict and supporting evidence."""

    name: str
    passed: bool
    evidence: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_table(self) -> str:
        rows = [
            [c.name, "PASS" if c.passed else "FAIL", c.evidence]
            for c in self.checks
        ]
        verdict = "REPRODUCED" if self.passed else "NOT REPRODUCED"
        return render_table(
            ["check", "verdict", "evidence"], rows,
            title=f"Reproduction validation: {verdict}", align="lll")


def evaluate_claims(
    profiles: Mapping[str, LatencyProfile],
    congestion: CongestionReport,
    result: ExplorationResult,
) -> ValidationReport:
    """Every claim's verdict from the three experiments' reports."""
    checks: list[Check] = []

    # --- Figure 1 -----------------------------------------------------
    falling = [
        name
        for name, p in profiles.items()
        if all(
            later.ipc <= earlier.ipc * 1.05
            for earlier, later in zip(p.points, p.points[1:])
        )
    ]
    checks.append(Check(
        "fig1_curves_fall",
        len(falling) == len(profiles),
        f"{len(falling)}/{len(profiles)} curves non-increasing",
    ))
    compute_peak = profiles[COMPUTE_BOUND].peak_normalized_ipc
    checks.append(Check(
        "fig1_compute_flat",
        compute_peak < 1.5,
        f"{COMPUTE_BOUND} peak {compute_peak:.2f}x",
    ))
    high = [
        name for name in MEMORY_BOUND
        if (i := profiles[name].intercept_latency()) is not None
        and i > IDEAL_L2_LATENCY
    ]
    checks.append(Check(
        "fig1_intercepts_high",
        len(high) == len(MEMORY_BOUND),
        f"{len(high)}/{len(MEMORY_BOUND)} intercepts above "
        f"{IDEAL_L2_LATENCY} cy",
    ))

    # --- Section III ----------------------------------------------------
    l2_full = congestion.avg_l2_access_queue_full
    dram_full = congestion.avg_dram_queue_full
    checks.append(Check(
        "sec3_l2_congested", 0.10 <= l2_full <= 0.80,
        f"L2 access queues full {l2_full:.0%} (paper 46%)"))
    checks.append(Check(
        "sec3_dram_congested", 0.10 <= dram_full <= 0.80,
        f"DRAM sched queues full {dram_full:.0%} (paper 39%)"))

    # --- Section IV -----------------------------------------------------
    gains = {l: result.average_gain(l) for l in ("l1", "l2", "dram")}
    checks.append(Check(
        "sec4_l2_dominates",
        gains["l2"] > gains["dram"] > gains["l1"],
        "gains: " + ", ".join(f"{l} {g:+.0%}" for l, g in gains.items()),
    ))
    synergy = analyze_synergy(result)
    checks.append(Check(
        "sec4_superadditive",
        synergy.all_super_additive,
        ", ".join(
            f"{p.combined_label} {p.synergy:+.1%}" for p in synergy.pairs),
    ))
    degraded = result.degraded_benchmarks("l1")
    checks.append(Check(
        "sec4_l1_backfires",
        bool(degraded),
        f"degraded: {', '.join(degraded) or 'none'}",
    ))
    cache_gain = result.average_gain("l1+l2")
    checks.append(Check(
        "sec4_cache_beats_dram",
        cache_gain > gains["dram"],
        f"L1+L2 {cache_gain:+.0%} vs DRAM {gains['dram']:+.0%}",
    ))

    return ValidationReport(checks=tuple(checks))


def validation_plan(
    config: GPUConfig,
    iteration_scale: float = 0.5,
    seed: int = 1,
    latencies: Sequence[int] = (0, 200, 400, 800),
) -> Plan[ValidationReport]:
    """Figure 1, Section III and Section IV over the suite, as one batch."""
    experiments = [
        latency_profile_plan(
            name, config, latencies=latencies,
            iteration_scale=iteration_scale, seed=seed)
        for name in PAPER_SUITE
    ]
    experiments.append(congestion_plan(
        config, iteration_scale=iteration_scale, seed=seed))
    experiments.append(exploration_plan(
        config, iteration_scale=iteration_scale, seed=seed))
    return combine(experiments).then(
        lambda reports: evaluate_claims(
            dict(zip(PAPER_SUITE, reports[:-2])), *reports[-2:]))


def validate_reproduction(
    *args: Any, runner: BatchRunner | None = None, **kwargs: Any
) -> ValidationReport:
    """Run :func:`validation_plan` on ``runner`` (default: serial)."""
    return run_plan(validation_plan(*args, **kwargs), runner)
