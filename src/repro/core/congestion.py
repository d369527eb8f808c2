"""Section III: measuring the bandwidth bottleneck.

"We quantify the congestion between L1 and L2 by measuring the occupancy
of the L2 access queues.  We observe that on average, the L2 access queues
are full for 46% of their usage lifetime.  Similarly ... the DRAM access
queues are full for 39% of their usage lifetime."

:func:`congestion_plan` runs the suite on the baseline configuration
and reports, per benchmark and averaged, the full-fraction of every queue
in the hierarchy, plus the supporting congestion indicators (MSHR
pressure, crossbar blockage, reservation failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from typing import Any

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.core.metrics import RunMetrics
from repro.sim.config import GPUConfig
from repro.utils.means import arithmetic_mean
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE
from repro.runner import BatchRunner, Job
from repro.runner.plan import Plan, run_plan


@dataclass(frozen=True)
class CongestionReport:
    """Queue congestion across the memory hierarchy."""

    #: Per-benchmark run metrics on the baseline configuration.
    runs: Mapping[str, RunMetrics]

    # -- Section III headline numbers -----------------------------------
    @property
    def avg_l2_access_queue_full(self) -> float:
        """Paper: 46% on the GTX480 baseline."""
        return arithmetic_mean(
            m.l2_accessq.full_fraction for m in self.runs.values()
        )

    @property
    def avg_dram_queue_full(self) -> float:
        """Paper: 39% on the GTX480 baseline."""
        return arithmetic_mean(
            m.dram_schedq.full_fraction for m in self.runs.values()
        )

    @property
    def avg_l1_miss_queue_full(self) -> float:
        return arithmetic_mean(
            m.l1_missq.full_fraction for m in self.runs.values()
        )

    @property
    def avg_l2_miss_queue_full(self) -> float:
        return arithmetic_mean(
            m.l2_missq.full_fraction for m in self.runs.values()
        )

    @property
    def avg_l2_response_queue_full(self) -> float:
        return arithmetic_mean(
            m.l2_respq.full_fraction for m in self.runs.values()
        )

    @property
    def truncated_benchmarks(self) -> tuple[str, ...]:
        """Benchmarks whose run hit the cycle limit (metrics are bounds)."""
        return tuple(name for name, m in self.runs.items() if m.truncated)

    def to_table(self) -> str:
        """Per-benchmark queue full-fractions as an ASCII table."""
        rows = []
        for name, m in self.runs.items():
            rows.append(
                [
                    name + (" *" if m.truncated else ""),
                    f"{m.l1_missq.full_fraction:.0%}",
                    f"{m.l2_accessq.full_fraction:.0%}",
                    f"{m.l2_missq.full_fraction:.0%}",
                    f"{m.l2_respq.full_fraction:.0%}",
                    f"{m.dram_schedq.full_fraction:.0%}",
                    f"{m.l1_avg_miss_latency:.0f}",
                ]
            )
        rows.append(
            [
                "average",
                f"{self.avg_l1_miss_queue_full:.0%}",
                f"{self.avg_l2_access_queue_full:.0%}",
                f"{self.avg_l2_miss_queue_full:.0%}",
                f"{self.avg_l2_response_queue_full:.0%}",
                f"{self.avg_dram_queue_full:.0%}",
                "",
            ]
        )
        table = render_table(
            [
                "benchmark",
                "L1 missQ full",
                "L2 accessQ full",
                "L2 missQ full",
                "L2 respQ full",
                "DRAM schedQ full",
                "avg L1 miss lat",
            ],
            rows,
            title="Queue full-fraction of usage lifetime (baseline)",
        )
        if self.truncated_benchmarks:
            table += (
                "\n* hit the cycle limit; truncated metrics are lower bounds"
            )
        return table


def congestion_plan(
    config: GPUConfig,
    benchmarks: Sequence[str] = PAPER_SUITE,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> Plan[CongestionReport]:
    """The Section III measurement: one baseline run per benchmark."""
    benchmarks = list(benchmarks)
    return Plan(
        tuple(
            Job(config, name, seed=seed, iteration_scale=iteration_scale,
                max_cycles=max_cycles)
            for name in benchmarks
        ),
        lambda runs: CongestionReport(runs=dict(zip(benchmarks, runs))),
    )


def measure_congestion(
    *args: Any, runner: BatchRunner | None = None, **kwargs: Any
) -> CongestionReport:
    """Run :func:`congestion_plan` on ``runner`` (default: serial)."""
    return run_plan(congestion_plan(*args, **kwargs), runner)
