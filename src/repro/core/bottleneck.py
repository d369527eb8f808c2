"""Automated bottleneck classification.

Formalizes the reading of a run's congestion signature into one of the
levels the paper reasons about.  The classifier looks at the same
indicators the paper uses — queue full-times, back-pressure counters and
the latency-tolerance margin — and names the *dominant* constraint:

``compute``
    The memory system keeps up: high IPC fraction, idle queues.
``latency``
    Queues are calm but warps still spend most cycles waiting — exposed
    round-trip latency with too little parallelism to cover it (nw-like).
``l1_l2_bandwidth``
    L1 miss queues / L2 access queues / L2 response queues run full — the
    cache-hierarchy bandwidth wall the paper highlights.
``dram_bandwidth``
    The DRAM scheduler queues run full or the data bus saturates.

Classification thresholds are deliberately coarse: the goal is the
paper-style qualitative statement ("this workload is L2-bound"), not a
regression model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.metrics import RunMetrics
from repro.runner import BatchRunner, Job
from repro.runner.plan import Plan, run_plan
from repro.sim.config import GPUConfig
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE


class Bottleneck(enum.Enum):
    COMPUTE = "compute"
    LATENCY = "latency"
    L1_L2_BANDWIDTH = "l1_l2_bandwidth"
    DRAM_BANDWIDTH = "dram_bandwidth"


@dataclass(frozen=True)
class Diagnosis:
    """Classification plus the evidence it rests on."""

    benchmark: str
    bottleneck: Bottleneck
    #: indicator name -> value backing the verdict.
    evidence: Mapping[str, float]

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v:.2f}" for k, v in self.evidence.items())
        return f"{self.benchmark}: {self.bottleneck.value} ({parts})"


def classify(metrics: RunMetrics, peak_ipc: float) -> Diagnosis:
    """Classify one run given the architecture's peak issue rate."""
    ipc_fraction = metrics.ipc / peak_ipc if peak_ipc else 0.0
    dram_pressure = max(
        metrics.dram_schedq.full_fraction, metrics.dram_bus_utilization)
    cache_pressure = max(
        metrics.l2_accessq.full_fraction,
        metrics.l2_respq.full_fraction,
        metrics.l1_missq.full_fraction,
    )
    evidence = {
        "ipc_fraction": ipc_fraction,
        "cache_pressure": cache_pressure,
        "dram_pressure": dram_pressure,
        "avg_miss_latency": metrics.l1_avg_miss_latency,
        "no_ready_warp_fraction": metrics.no_ready_warp_fraction,
    }
    if ipc_fraction > 0.7:
        verdict = Bottleneck.COMPUTE
    elif dram_pressure >= 0.6 and dram_pressure >= cache_pressure:
        verdict = Bottleneck.DRAM_BANDWIDTH
    elif cache_pressure >= 0.4:
        verdict = Bottleneck.L1_L2_BANDWIDTH
    else:
        verdict = Bottleneck.LATENCY
    return Diagnosis(
        benchmark=metrics.benchmark, bottleneck=verdict, evidence=evidence)


def peak_issue_rate(config: GPUConfig) -> float:
    """Architectural IPC ceiling: total issue slots per cycle."""
    return config.core.n_sms * config.core.issue_width


def diagnosis_plan(
    config: GPUConfig,
    benchmarks: Sequence[str] = PAPER_SUITE,
    iteration_scale: float = 1.0,
    seed: int = 1,
) -> Plan[list[Diagnosis]]:
    """One run per suite benchmark, each classified."""
    peak = peak_issue_rate(config)
    return Plan(
        tuple(
            Job(config, name, seed=seed, iteration_scale=iteration_scale)
            for name in benchmarks
        ),
        lambda runs: [classify(metrics, peak) for metrics in runs],
    )


def diagnose_suite(
    *args: Any, runner: BatchRunner | None = None, **kwargs: Any
) -> list[Diagnosis]:
    """Run :func:`diagnosis_plan` on ``runner`` (default: serial)."""
    return run_plan(diagnosis_plan(*args, **kwargs), runner)


def render_diagnoses(diagnoses: Sequence[Diagnosis]) -> str:
    rows = [
        [
            d.benchmark,
            d.bottleneck.value,
            f"{d.evidence['ipc_fraction']:.0%}",
            f"{d.evidence['cache_pressure']:.0%}",
            f"{d.evidence['dram_pressure']:.0%}",
            f"{d.evidence['avg_miss_latency']:.0f}",
        ]
        for d in diagnoses
    ]
    return render_table(
        ["benchmark", "bottleneck", "IPC/peak", "cache pressure",
         "DRAM pressure", "miss latency"],
        rows,
        title="Bottleneck classification",
    )
