"""Per-hop latency breakdown.

Section II argues that baseline memory latencies are "critically higher
than the ideal access latencies" and attributes the excess to congestion.
This analyzer shows *where* the excess accrues: every request carries
per-hop timestamps, and the breakdown averages the time spent in each
segment of the round trip (:data:`repro.telemetry.SEGMENTS`), separately
for L2 hits and L2 misses.

:func:`breakdown_plan` is one run whose
:class:`~repro.telemetry.RequestTracer` streams every completed load
into its :class:`~repro.telemetry.LatencyBreakdown`.
"""

from __future__ import annotations

from repro.core.metrics import ProbeSpec
from repro.runner import Job
from repro.runner.plan import Plan
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.telemetry import LatencyBreakdown

#: Every request folded into the breakdown, none kept for a trace.
BREAKDOWN_PROBES = ProbeSpec(trace_stride=1, trace_limit=0)


def breakdown_plan(
    config: GPUConfig,
    benchmark: str,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> Plan[LatencyBreakdown]:
    """One traced run of ``benchmark``, as its per-hop latency breakdown."""
    job = Job(config, benchmark, seed=seed, iteration_scale=iteration_scale,
              max_cycles=max_cycles, probes=BREAKDOWN_PROBES)
    return Plan((job,), lambda runs: runs[0].extras["breakdown"])


def congestion_share(breakdown: LatencyBreakdown, config: GPUConfig) -> float:
    """Fraction of the average L2-miss round trip beyond the unloaded one.

    Uses the configured ideal latencies; a value of 0.6 means 60% of the
    observed latency is queueing added by congestion — the quantity the
    paper's Section II points at.
    """
    observed = breakdown.total_l2_miss.mean
    if not observed:
        return 0.0
    timing = config.dram
    unloaded = (
        config.l2.bank_latency
        + timing.t_rcd + timing.t_cas + config.dram_transfer_cycles
        + config.response_transfer_cycles()
        + config.icnt.network_latency
        + config.l1.fill_latency
    )
    return max(0.0, (observed - unloaded) / observed)
