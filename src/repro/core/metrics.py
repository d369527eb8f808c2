"""Run-level metric extraction.

:func:`run_kernel` builds a GPU, runs a kernel to completion and distils
every statistic the paper's analyses need into a flat, picklable
:class:`RunMetrics` — performance (IPC), latency (average L1 miss round
trip), congestion (full fractions of every Table I queue), cache behaviour
(hit rates, MSHR pressure, reservation failures) and DRAM behaviour (row
locality, bus utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.l1 import AccessResult
from repro.errors import CycleLimitExceeded
from repro.gpu import GPU
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.telemetry import (
    DEFAULT_MAX_WINDOWS,
    DEFAULT_TRACE_LIMIT,
    AttributionProbe,
    RequestTracer,
    TimeSeriesProbe,
)
from repro.utils.means import arithmetic_mean
from repro.workloads.program import KernelProgram

#: Stable string keys for the memory-pipeline stall causes, in a fixed
#: order so exports/CSV columns never depend on which causes a run hit.
STALL_CAUSE_KEYS: tuple[str, ...] = tuple(
    result.value for result in AccessResult if result.is_stall
)


@dataclass(frozen=True)
class QueueMetrics:
    """Aggregated congestion statistics for one queue family."""

    #: Fraction of usage lifetime the queues were full (Section III metric),
    #: averaged across instances.
    full_fraction: float
    #: Fraction of total run time the queues held at least one entry.
    busy_fraction: float
    #: Pushes refused because the queue was full.
    rejections: int
    pushes: int


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured from one simulation run."""

    benchmark: str
    cycles: int
    instructions: int
    ipc: float
    # --- L1 ---
    l1_hit_rate: float
    l1_avg_miss_latency: float
    #: Tail of the L1 miss round-trip distribution.
    l1_p50_miss_latency: float
    l1_p95_miss_latency: float
    l1_miss_count: int
    l1_mshr_stall_cycles: int
    l1_missq: QueueMetrics
    # --- interconnect ---
    req_xbar_utilization: float
    resp_xbar_utilization: float
    resp_xbar_blocked_cycles: int
    # --- L2 ---
    l2_hit_rate: float
    l2_accessq: QueueMetrics
    l2_missq: QueueMetrics
    l2_respq: QueueMetrics
    l2_mshr_full_fraction: float
    l2_reservation_fails: int
    l2_writebacks: int
    # --- DRAM ---
    dram_schedq: QueueMetrics
    dram_row_hit_rate: float
    dram_bus_utilization: float
    dram_reads: int
    dram_writes: int
    # --- core ---
    mem_pipeline_stall_cycles: int
    no_ready_warp_fraction: float
    # --- cycle accounting (summed over SMs; see telemetry.attribution) ---
    #: Total SM-cycles stepped (= cycles * SM count): the accounting
    #: denominator the four classes below partition exactly.
    sm_cycles: int = 0
    #: SM-cycles that issued at least one instruction.
    issue_cycles: int = 0
    #: SM-cycles with ready warps but nothing issued (LD/ST queue full).
    issue_starved_cycles: int = 0
    #: SM-cycles with no ready warp (all warps blocked on memory).
    no_ready_warp_cycles: int = 0
    #: SM-cycles after an SM quiesced while others still ran.
    drained_cycles: int = 0
    #: Memory-pipeline stall cycles keyed by stable cause string
    #: (``stall_mshr_full`` / ``stall_merge_full`` / ``stall_missq_full``);
    #: always zero-filled with every key so exports are column-stable.
    mem_stall_cycles_by_cause: dict = field(default_factory=dict)
    #: True when the run hit its ``max_cycles`` budget before completing
    #: (or draining).  Truncated metrics are lower bounds and must not be
    #: silently averaged into aggregates — reports mark them.
    truncated: bool = False
    extras: dict = field(default_factory=dict)

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """IPC ratio vs a baseline run of the same kernel."""
        return self.ipc / baseline.ipc if baseline.ipc else 0.0


def _queue_family(queues, cycles: int) -> QueueMetrics:
    queues = list(queues)
    if not queues or cycles == 0:
        return QueueMetrics(0.0, 0.0, 0, 0)
    return QueueMetrics(
        full_fraction=arithmetic_mean(q.full_fraction() for q in queues),
        busy_fraction=arithmetic_mean(q.busy_cycles() / cycles for q in queues),
        rejections=sum(q.rejections for q in queues),
        pushes=sum(q.pushes for q in queues),
    )


def collect_metrics(gpu: GPU, benchmark: str = "") -> RunMetrics:
    """Extract a :class:`RunMetrics` from a finished (finalized) GPU."""
    cycles = gpu.cycles
    sms = gpu.sms
    l1s = [sm.l1 for sm in sms]
    total_l1_lookups = sum(l1.tags.lookups.denominator for l1 in l1s)
    total_l1_hits = sum(l1.tags.lookups.numerator for l1 in l1s)
    miss_lat_total = sum(l1.miss_latency.total for l1 in l1s)
    miss_lat_count = sum(l1.miss_latency.count for l1 in l1s)
    from repro.utils.stats import Histogram

    merged_hist = Histogram("l1_miss_latency")
    for l1 in l1s:
        merged_hist.merge(l1.miss_latency_hist)

    stall_by_cause: dict = {key: 0 for key in STALL_CAUSE_KEYS}
    for sm in sms:
        for cause, stalled in sm.stall_cycles_by_cause.items():
            stall_by_cause[cause.value] += stalled

    magic = gpu.config.magic_memory
    if magic:
        l2_hit_rate = 0.0
        l2_accessq = l2_missq = l2_respq = QueueMetrics(0.0, 0.0, 0, 0)
        l2_mshr_full = 0.0
        l2_resfails = 0
        l2_writebacks = 0
        dram_schedq = QueueMetrics(0.0, 0.0, 0, 0)
        dram_row_hit = 0.0
        dram_bus_util = 0.0
        dram_reads = dram_writes = 0
        req_util = resp_util = 0.0
        resp_blocked = 0
    else:
        l2s = gpu.l2_slices
        drams = gpu.dram_channels
        l2_lookups = sum(l2.tags.lookups.denominator for l2 in l2s)
        l2_hits = sum(l2.tags.lookups.numerator for l2 in l2s)
        l2_hit_rate = l2_hits / l2_lookups if l2_lookups else 0.0
        l2_accessq = _queue_family((l2.access_queue for l2 in l2s), cycles)
        l2_missq = _queue_family((l2.miss_queue for l2 in l2s), cycles)
        l2_respq = _queue_family((l2.response_queue for l2 in l2s), cycles)
        l2_mshr_full = arithmetic_mean(
            l2.mshr.full_fraction() for l2 in l2s
        )
        l2_resfails = sum(l2.tags.reservation_fails for l2 in l2s)
        l2_writebacks = sum(l2.writebacks for l2 in l2s)
        dram_schedq = _queue_family((d.sched_queue for d in drams), cycles)
        total_acc = sum(d.total_accesses for d in drams)
        dram_row_hit = (
            sum(d.row_hit_rate * d.total_accesses for d in drams) / total_acc
            if total_acc
            else 0.0
        )
        dram_bus_util = (
            arithmetic_mean(d.bus_busy_cycles / cycles for d in drams)
            if cycles
            else 0.0
        )
        dram_reads = sum(d.reads for d in drams)
        dram_writes = sum(d.writes for d in drams)
        req_util = gpu.request_xbar.utilization
        resp_util = gpu.response_xbar.utilization
        resp_blocked = gpu.response_xbar.delivery_blocked_cycles

    return RunMetrics(
        benchmark=benchmark or gpu.kernel.name,
        cycles=cycles,
        instructions=gpu.instructions,
        ipc=gpu.ipc,
        l1_hit_rate=total_l1_hits / total_l1_lookups if total_l1_lookups else 0.0,
        l1_avg_miss_latency=miss_lat_total / miss_lat_count if miss_lat_count else 0.0,
        l1_p50_miss_latency=merged_hist.percentile(0.50),
        l1_p95_miss_latency=merged_hist.percentile(0.95),
        l1_miss_count=miss_lat_count,
        l1_mshr_stall_cycles=sum(l1.total_stalls for l1 in l1s),
        l1_missq=_queue_family((l1.miss_queue for l1 in l1s), cycles),
        req_xbar_utilization=req_util,
        resp_xbar_utilization=resp_util,
        resp_xbar_blocked_cycles=resp_blocked,
        l2_hit_rate=l2_hit_rate,
        l2_accessq=l2_accessq,
        l2_missq=l2_missq,
        l2_respq=l2_respq,
        l2_mshr_full_fraction=l2_mshr_full,
        l2_reservation_fails=l2_resfails,
        l2_writebacks=l2_writebacks,
        dram_schedq=dram_schedq,
        dram_row_hit_rate=dram_row_hit,
        dram_bus_utilization=dram_bus_util,
        dram_reads=dram_reads,
        dram_writes=dram_writes,
        mem_pipeline_stall_cycles=sum(
            sm.mem_pipeline_stall_cycles for sm in sms
        ),
        no_ready_warp_fraction=(
            arithmetic_mean(sm.no_ready_warp_cycles / cycles for sm in sms)
            if cycles
            else 0.0
        ),
        sm_cycles=sum(sm.cycles for sm in sms),
        issue_cycles=sum(sm.issue_cycles for sm in sms),
        issue_starved_cycles=sum(sm.issue_starved_cycles for sm in sms),
        no_ready_warp_cycles=sum(sm.no_ready_warp_cycles for sm in sms),
        drained_cycles=sum(sm.drained_cycles for sm in sms),
        mem_stall_cycles_by_cause=stall_by_cause,
    )


@dataclass(frozen=True)
class ProbeSpec:
    """Opt-in observers for one run, as a frozen, picklable value.

    An observer attaches only when its enabling field is set:
    ``sanitize_interval`` (the sanitizer), ``timeline_window``,
    ``trace_stride`` and ``attribution_window`` (the telemetry probes).
    """

    sanitize_interval: int | None = None
    timeline_window: int | None = None
    timeline_max_windows: int = DEFAULT_MAX_WINDOWS
    trace_stride: int | None = None
    trace_limit: int = DEFAULT_TRACE_LIMIT
    attribution_window: int | None = None


def run_kernel(
    config: GPUConfig,
    kernel: KernelProgram,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    probes: ProbeSpec | None = None,
    fast_forward: bool = True,
) -> RunMetrics:
    """Build, run and measure one kernel on one configuration.

    ``fast_forward`` controls the engine's event-horizon jump over
    provably idle cycles (byte-identical metrics either way; it is
    suspended automatically while sanitizer/telemetry observers are
    attached).  Disabling it forces the naive cycle loop — the reference
    the determinism tests compare against.

    ``probes`` attaches observers.  A :class:`repro.analysis.Sanitizer`
    raises :class:`~repro.errors.SanitizerError` on any violated
    invariant; its counters land in ``RunMetrics.extras['sanitizer']``.
    A :class:`repro.telemetry.TimeSeriesProbe` fills ``extras['timeline']``,
    a :class:`repro.telemetry.RequestTracer` ``extras['trace']`` (Chrome
    trace), ``extras['trace_hops']`` and ``extras['breakdown']``, and an
    :class:`repro.telemetry.AttributionProbe` ``extras['attribution']``
    (the data behind ``repro profile``).  Without probes the run is
    bit-identical to an uninstrumented one.

    A run that exhausts ``max_cycles`` is *not* silently averaged away:
    its statistics intervals are closed at the cut-off, the metrics carry
    ``truncated=True``, and reports/runner mark the point.  (Before this
    flag existed, the :class:`~repro.errors.CycleLimitExceeded` escaped
    and killed whole sweeps; now a single mis-calibrated point degrades
    to a labelled lower bound instead.)
    """
    gpu = GPU(config, kernel, seed=seed)
    gpu.sim.fast_forward_enabled = fast_forward
    probes = probes or ProbeSpec()
    sanitizer = None
    if probes.sanitize_interval is not None:
        from repro.analysis.sanitizer import Sanitizer

        sanitizer = Sanitizer.attach(gpu, interval=probes.sanitize_interval)
    timeline = tracer = attributor = None
    if probes.attribution_window is not None:
        attributor = AttributionProbe.attach(
            gpu, window=probes.attribution_window)
    if probes.timeline_window is not None:
        timeline = TimeSeriesProbe.attach(
            gpu, window=probes.timeline_window,
            max_windows=probes.timeline_max_windows)
    if probes.trace_stride is not None:
        tracer = RequestTracer.attach(
            gpu, stride=probes.trace_stride, limit=probes.trace_limit)
    truncated = False
    try:
        gpu.run(max_cycles=max_cycles)
    except CycleLimitExceeded:
        truncated = True
        gpu.sim.finalize()  # close statistics intervals at the cut-off
    metrics = collect_metrics(gpu)
    if truncated:
        metrics = replace(metrics, truncated=True)
    if sanitizer is not None:
        metrics.extras["sanitizer"] = sanitizer.stats()
    if timeline is not None:
        metrics.extras["timeline"] = timeline.summary()
    if tracer is not None:
        metrics.extras["trace"] = tracer.to_chrome_trace()
        metrics.extras["trace_hops"] = tracer.hop_summary()
        metrics.extras["breakdown"] = tracer.latency_breakdown()
    if attributor is not None:
        metrics.extras["attribution"] = attributor.summary()
    return metrics
