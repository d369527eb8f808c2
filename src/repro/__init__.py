"""repro — reproduction of *Characterizing Memory Bottlenecks in GPGPU
Workloads* (Dublish, Nagarajan, Topham; IISWC 2016).

A cycle-level GPU memory-hierarchy simulator (SIMT cores, L1D with MSHRs,
flit-based crossbars, banked L2 slices, FR-FCFS DRAM channels — all with
finite, instrumented queues and real back-pressure) plus the paper's
characterization methodology on top: the Figure 1 latency-tolerance
profile, the Section III queue-congestion measurement and the Table I /
Section IV design-space exploration.

Quickstart::

    from repro import Job, small_gpu

    metrics = Job(small_gpu(), "lbm").execute()
    print(metrics.ipc, metrics.l2_accessq.full_fraction)
"""

from repro.sim.config import (
    CoreConfig,
    DRAMConfig,
    GPUConfig,
    ICNTConfig,
    L1Config,
    L2Config,
    fermi_gtx480,
    small_gpu,
    tiny_gpu,
)
from repro.gpu import GPU
from repro.core.metrics import ProbeSpec, RunMetrics, run_kernel
from repro.core.latency_profile import (
    DEFAULT_LATENCIES,
    LatencyProfile,
    profile_latency_tolerance,
)
from repro.core.congestion import CongestionReport, measure_congestion
from repro.core.design_space import (
    TABLE_I,
    DesignParameter,
    render_table_i,
    scale_level,
    scale_levels,
    scaled_config,
)
from repro.core.explorer import (
    SECTION_IV_CONFIGS,
    ExplorationResult,
    explore_design_space,
    sweep_parameter,
)
from repro.core.synergy import SynergyAnalysis, analyze_synergy
from repro.core.latency_breakdown import breakdown_plan, congestion_share
from repro.core.profile import (
    Diagnosis,
    diagnose,
    diagnosis_plan,
    render_diagnoses,
)
from repro.core.cost_model import (
    DEFAULT_COSTS,
    CostEffectiveness,
    configuration_cost,
    cost_effectiveness,
    pareto_frontier,
    render_cost_effectiveness,
)
from repro.core.scaling_curve import (
    ScalingCurve,
    render_scaling_curves,
    scale_level_by,
    sweep_scaling_coefficient,
)
from repro.core.replication import Replication, ReplicationReport, replicate
from repro.core.validation import Check, ValidationReport, validate_reproduction
from repro.runner import BatchRunner, Job, Plan, ResultCache, code_version, run_plan
from repro.workloads.program import KernelProgram
from repro.workloads.synthetic import SyntheticKernelSpec, build_kernel
from repro.workloads.suite import BENCHMARKS, PAPER_SUITE, SPECS, get_benchmark
from repro.telemetry import LatencyBreakdown, RequestTracer, TimeSeriesProbe

__version__ = "1.0.0"

__all__ = [
    "CoreConfig",
    "DRAMConfig",
    "GPUConfig",
    "ICNTConfig",
    "L1Config",
    "L2Config",
    "fermi_gtx480",
    "small_gpu",
    "tiny_gpu",
    "GPU",
    "ProbeSpec",
    "RunMetrics",
    "run_kernel",
    "DEFAULT_LATENCIES",
    "LatencyProfile",
    "profile_latency_tolerance",
    "CongestionReport",
    "measure_congestion",
    "TABLE_I",
    "DesignParameter",
    "render_table_i",
    "scale_level",
    "scale_levels",
    "scaled_config",
    "SECTION_IV_CONFIGS",
    "ExplorationResult",
    "explore_design_space",
    "sweep_parameter",
    "SynergyAnalysis",
    "analyze_synergy",
    "LatencyBreakdown",
    "breakdown_plan",
    "congestion_share",
    "Diagnosis",
    "diagnose",
    "diagnosis_plan",
    "render_diagnoses",
    "DEFAULT_COSTS",
    "CostEffectiveness",
    "configuration_cost",
    "cost_effectiveness",
    "pareto_frontier",
    "render_cost_effectiveness",
    "ScalingCurve",
    "render_scaling_curves",
    "scale_level_by",
    "sweep_scaling_coefficient",
    "Replication",
    "ReplicationReport",
    "replicate",
    "Check",
    "ValidationReport",
    "validate_reproduction",
    "BatchRunner",
    "Job",
    "Plan",
    "run_plan",
    "ResultCache",
    "code_version",
    "RequestTracer",
    "TimeSeriesProbe",
    "KernelProgram",
    "SyntheticKernelSpec",
    "build_kernel",
    "BENCHMARKS",
    "PAPER_SUITE",
    "SPECS",
    "get_benchmark",
    "__version__",
]
