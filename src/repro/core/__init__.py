"""The paper's characterization methodology.

Four instruments, one per artifact of the paper:

* :mod:`repro.core.latency_profile` — Figure 1's latency-tolerance sweep;
* :mod:`repro.core.congestion` — Section III's queue-occupancy measurement;
* :mod:`repro.core.design_space` — Table I's parameter groups and scaling;
* :mod:`repro.core.explorer` / :mod:`repro.core.synergy` — Section IV's
  isolated and synergistic bandwidth-scaling experiments.
"""

from repro.core.metrics import RunMetrics, run_kernel
from repro.core.latency_profile import LatencyProfile, profile_latency_tolerance
from repro.core.congestion import CongestionReport, measure_congestion
from repro.core.design_space import (
    TABLE_I,
    DesignParameter,
    scale_level,
    scale_levels,
    scaled_config,
)
from repro.core.explorer import ExplorationResult, explore_design_space
from repro.core.synergy import SynergyAnalysis, analyze_synergy
from repro.core.latency_breakdown import breakdown_plan
from repro.core.profile import Diagnosis, diagnose, diagnosis_plan
from repro.core.cost_model import cost_effectiveness, pareto_frontier
from repro.core.scaling_curve import ScalingCurve, sweep_scaling_coefficient
from repro.core.replication import Replication, ReplicationReport, replicate
from repro.core.validation import Check, ValidationReport, validate_reproduction

__all__ = [
    "RunMetrics",
    "run_kernel",
    "LatencyProfile",
    "profile_latency_tolerance",
    "CongestionReport",
    "measure_congestion",
    "TABLE_I",
    "DesignParameter",
    "scale_level",
    "scale_levels",
    "scaled_config",
    "ExplorationResult",
    "explore_design_space",
    "SynergyAnalysis",
    "analyze_synergy",
    "breakdown_plan",
    "Diagnosis",
    "diagnose",
    "diagnosis_plan",
    "cost_effectiveness",
    "pareto_frontier",
    "ScalingCurve",
    "sweep_scaling_coefficient",
    "Replication",
    "ReplicationReport",
    "replicate",
    "Check",
    "ValidationReport",
    "validate_reproduction",
]
