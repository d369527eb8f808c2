"""Self-validation: the paper's claims as one table of runnable checks.

`validation_plan` is the full experiment battery — the Figure 1 sweep,
the Section III congestion study at the baseline and under full Table I
scaling, and the Section IV matrix — as one batch whose shared baseline
runs execute once.  Its fold judges every row of :data:`CLAIMS` against
the battery's reports and keeps those reports beside the verdicts.
``repro validate``, the benchmark harness (one test per claim id) and
the EXPERIMENTS.md generator all read this one table, so each claim's
predicate and each of the paper's own numbers is written down once.

Claims (all *shape* claims, per the reproduction brief):

================================  ==========================================
claim                             paper claim
================================  ==========================================
fig1_curves_fall                  IPC decreases with fixed L1 miss latency
fig1_compute_flat                 the compute-bound curve is ~flat
fig1_far_from_plateau             memory-bound kernels sit far below plateau
fig1_intercepts_high              effective latencies >> ideal L2 latency
fig1_intercepts_beyond_dram       ... and beyond ideal DRAM latency for most
fig1_intercept_estimates_latency  the 1.0x intercept estimates miss latency
sec3_l2_congested                 L2 access queues full a large fraction
sec3_dram_congested               DRAM scheduler queues full a large fraction
sec3_pressure_widespread          L2-path pressure in half the suite or more
sec3_scaled_relieves              full Table I scaling drains both queues
sec4_l2_dominates                 L2-level scaling >> DRAM-level >> L1-level
sec4_magnitudes                   L2 a large win, DRAM modest, L1 marginal
sec4_level_winners                each level wins for the kernels it binds
sec4_superadditive                both combined scalings exceed their parts
sec4_combined_beat_isolated       both combinations beat every single level
sec4_l1_backfires                 isolated L1 scaling degrades >= 1 kernel
sec4_l1l2_recovers                matching L1 demand at L2 recovers the loss
sec4_cache_beats_dram             L1+L2 scaling beats high-bandwidth DRAM
sec4_congestion_moves             relieving L2 moves congestion to DRAM
================================  ==========================================
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.core.congestion import CongestionReport, congestion_plan
from repro.core.design_space import scale_levels
from repro.core.explorer import ExplorationResult, exploration_plan
from repro.core.latency_profile import (
    IDEAL_DRAM_LATENCY,
    IDEAL_L2_LATENCY,
    LatencyProfile,
    latency_profile_plan,
)
from repro.core.synergy import SynergyAnalysis, analyze_synergy
from repro.runner import BatchRunner
from repro.runner.plan import Plan, combine, run_plan
from repro.sim.config import GPUConfig
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE

#: Benchmarks treated as memory-intensive for the Figure 1 checks.
MEMORY_BOUND: tuple[str, ...] = ("cfd", "dwt2d", "nn", "sc", "lbm", "ss")
COMPUTE_BOUND = "leukocyte"


@dataclass(frozen=True)
class Battery:
    """The battery's reports: everything a claim's judge reads."""

    profiles: Mapping[str, LatencyProfile]
    congestion: CongestionReport
    #: Section III repeated on the config with every Table I level scaled.
    scaled_congestion: CongestionReport
    exploration: ExplorationResult

    @cached_property
    def synergy(self) -> SynergyAnalysis:
        return analyze_synergy(self.exploration)


#: A judge's answer: (passed, evidence).
Verdict = tuple[bool, str]
Judge = Callable[[Battery], Verdict]


@dataclass(frozen=True)
class Claim:
    """One row of the claim table."""

    id: str
    #: Where the paper makes the claim ("Fig. 1", "Sec. III", "Sec. IV").
    section: str
    #: The paper's words where they are quoted here, else a paraphrase.
    quote: str
    judge: Judge
    #: The paper's own numbers behind the claim, if it gives any.
    paper: Mapping[str, float]


#: The claim table, in report order.
CLAIMS: dict[str, Claim] = {}


def _claim(
    section: str, quote: str, **paper: float
) -> Callable[[Judge], Judge]:
    """Register the decorated judge as the claim named after it."""
    def register(judge: Judge) -> Judge:
        claim_id = judge.__name__.lstrip("_")
        CLAIMS[claim_id] = Claim(claim_id, section, quote, judge, paper)
        return judge
    return register


def paper_number(claim_id: str) -> float:
    """The one number the paper gives for ``claim_id``."""
    (value,) = CLAIMS[claim_id].paper.values()
    return value


def paper_gains() -> dict[str, float]:
    """The paper's Section IV average gain per configuration label."""
    return {**CLAIMS["sec4_l2_dominates"].paper,
            **CLAIMS["sec4_superadditive"].paper}


# --- Figure 1 ----------------------------------------------------------
@_claim("Fig. 1", "performance falls steeply with L1 miss latency")
def _fig1_curves_fall(b: Battery) -> Verdict:
    falling = [
        name
        for name, p in b.profiles.items()
        if all(
            later.ipc <= earlier.ipc * 1.05
            for earlier, later in zip(p.points, p.points[1:])
        )
    ]
    return (len(falling) == len(b.profiles),
            f"{len(falling)}/{len(b.profiles)} curves non-increasing")


@_claim("Fig. 1", "the compute-bound benchmark's curve is the flattest")
def _fig1_compute_flat(b: Battery) -> Verdict:
    peak = b.profiles[COMPUTE_BOUND].peak_normalized_ipc
    return peak < 1.5, f"{COMPUTE_BOUND} peak {peak:.2f}x"


@_claim("Fig. 1", "the baseline is far from the low-latency plateau")
def _fig1_far_from_plateau(b: Battery) -> Verdict:
    peaks = {name: b.profiles[name].peak_normalized_ipc
             for name in MEMORY_BOUND}
    far = [name for name, peak in peaks.items() if peak > 2.0]
    lowest = min(peaks, key=peaks.__getitem__)
    return (len(far) == len(MEMORY_BOUND),
            f"{len(far)}/{len(MEMORY_BOUND)} peaks above 2.0x "
            f"(lowest {lowest} {peaks[lowest]:.2f}x)")


def _intercepts_above(b: Battery, latency: int) -> list[str]:
    return [
        name for name in MEMORY_BOUND
        if (i := b.profiles[name].intercept_latency()) is not None
        and i > latency
    ]


@_claim("Fig. 1", "baseline latencies sit far above the ideal L2 latency")
def _fig1_intercepts_high(b: Battery) -> Verdict:
    high = _intercepts_above(b, IDEAL_L2_LATENCY)
    return (len(high) == len(MEMORY_BOUND),
            f"{len(high)}/{len(MEMORY_BOUND)} intercepts above "
            f"{IDEAL_L2_LATENCY} cy")


@_claim("Fig. 1", "... and above the ideal DRAM latency (congestion)")
def _fig1_intercepts_beyond_dram(b: Battery) -> Verdict:
    beyond = _intercepts_above(b, IDEAL_DRAM_LATENCY)
    return (len(beyond) >= len(MEMORY_BOUND) - 1,
            f"{len(beyond)}/{len(MEMORY_BOUND)} intercepts above "
            f"{IDEAL_DRAM_LATENCY} cy")


@_claim("Fig. 1", "the 1.0x intercept is the baseline's effective latency")
def _fig1_intercept_estimates_latency(b: Battery) -> Verdict:
    profile = b.profiles["sc"]
    intercept = profile.intercept_latency()
    measured = profile.baseline_avg_miss_latency
    if intercept is None:
        return False, f"sc never reaches 1.0x; {measured:.0f} cy measured"
    return (abs(intercept - measured) / measured < 0.35,
            f"sc intercept {intercept:.0f} cy vs {measured:.0f} cy measured")


# --- Section III ---------------------------------------------------------
@_claim("Sec. III", "L2 access queues are full for a large share of their "
        "usage lifetime", l2_accessq_full=0.46)
def _sec3_l2_congested(b: Battery) -> Verdict:
    full = b.congestion.avg_l2_access_queue_full
    return (0.10 <= full <= 0.80,
            f"L2 access queues full {full:.0%} "
            f"(paper {paper_number('sec3_l2_congested'):.0%})")


@_claim("Sec. III", "DRAM scheduler queues are full for a large share of "
        "their usage lifetime", dram_schedq_full=0.39)
def _sec3_dram_congested(b: Battery) -> Verdict:
    full = b.congestion.avg_dram_queue_full
    return (0.10 <= full <= 0.80,
            f"DRAM sched queues full {full:.0%} "
            f"(paper {paper_number('sec3_dram_congested'):.0%})")


@_claim("Sec. III", "back-pressure throttles the caches across the suite")
def _sec3_pressure_widespread(b: Battery) -> Verdict:
    runs = b.congestion.runs
    pressured = [
        name for name, m in runs.items()
        if m.l2_accessq.full_fraction > 0.2 or m.l2_respq.full_fraction > 0.2
    ]
    return (len(pressured) >= len(runs) // 2,
            f"{len(pressured)}/{len(runs)} kernels with an L2 access or "
            "response queue full > 20%")


@_claim("Sec. III", "back-pressure, not capacity, fills the queues")
def _sec3_scaled_relieves(b: Battery) -> Verdict:
    base, scaled = b.congestion, b.scaled_congestion
    l2 = (scaled.avg_l2_access_queue_full, base.avg_l2_access_queue_full)
    dram = (scaled.avg_dram_queue_full, base.avg_dram_queue_full)
    return (l2[0] < l2[1] and dram[0] < dram[1],
            f"scaled L2 access queue full {l2[0]:.0%} vs {l2[1]:.0%}, "
            f"DRAM sched {dram[0]:.0%} vs {dram[1]:.0%}")


# --- Section IV ----------------------------------------------------------
def _level_gains(b: Battery) -> dict[str, float]:
    return {l: b.exploration.average_gain(l) for l in ("l1", "l2", "dram")}


@_claim("Sec. IV", "scaling the L2 level gains most, then DRAM, then L1",
        l1=0.04, l2=0.59, dram=0.11)
def _sec4_l2_dominates(b: Battery) -> Verdict:
    gains = _level_gains(b)
    return (gains["l2"] > gains["dram"] > gains["l1"],
            "gains: " + ", ".join(f"{l} {g:+.0%}" for l, g in gains.items()))


@_claim("Sec. IV", "L2 scaling is a large win, DRAM modest, L1 marginal")
def _sec4_magnitudes(b: Battery) -> Verdict:
    g = _level_gains(b)
    return (g["l2"] > 0.25 and 0.0 < g["dram"] < g["l2"] / 2
            and abs(g["l1"]) < 0.10,
            f"L2 {g['l2']:+.0%}, DRAM {g['dram']:+.0%}, L1 {g['l1']:+.0%}")


@_claim("Sec. IV", "each level pays for the kernels it bottlenecks")
def _sec4_level_winners(b: Battery) -> Verdict:
    result = b.exploration
    l2_bound = {n: result.speedup("l2", n) for n in ("dwt2d", "sc", "ss")}
    lbm = result.speedup("dram", "lbm")
    still = max(abs(result.speedup(l, COMPUTE_BOUND) - 1.0)
                for l in ("l1", "l2", "dram"))
    return (min(l2_bound.values()) > 1.25 and lbm > 1.25 and still < 0.08,
            "L2: " + ", ".join(f"{n} {s:.2f}x" for n, s in l2_bound.items())
            + f"; DRAM: lbm {lbm:.2f}x; {COMPUTE_BOUND} within {still:.1%}")


@_claim("Sec. IV", "the combined L1-L2 and L2-DRAM gains are greater than "
        "the respective sum of the individual gains",
        **{"l1+l2": 0.69, "l2+dram": 0.76})
def _sec4_superadditive(b: Battery) -> Verdict:
    return (b.synergy.all_super_additive,
            ", ".join(f"{p.combined_label} {p.synergy:+.1%}"
                      for p in b.synergy.pairs))


@_claim("Sec. IV", "synergistic scaling yields better results than "
        "increasing the bandwidth at the memory levels independently")
def _sec4_combined_beat_isolated(b: Battery) -> Verdict:
    best = max(_level_gains(b).values())
    return (all(p.combined_gain > best for p in b.synergy.pairs),
            ", ".join(f"{p.combined_label} {p.combined_gain:+.0%}"
                      for p in b.synergy.pairs)
            + f" vs best level {best:+.0%}")


@_claim("Sec. IV", "increasing the L1 bandwidth ... can lead to "
        "performance degradation")
def _sec4_l1_backfires(b: Battery) -> Verdict:
    degraded = b.exploration.degraded_benchmarks("l1")
    return bool(degraded), f"degraded: {', '.join(degraded) or 'none'}"


@_claim("Sec. IV", "matching the increased bandwidth demand of L1 at L2 "
        "significantly improves performance")
def _sec4_l1l2_recovers(b: Battery) -> Verdict:
    result = b.exploration
    degraded = result.degraded_benchmarks("l1")
    recovered = [n for n in degraded
                 if result.speedup("l1+l2", n) >= result.speedup("l1", n)]
    gain = result.average_gain("l1+l2")
    return (recovered == degraded and gain > 0.2,
            f"{len(recovered)}/{len(degraded)} degraded recovered, "
            f"L1+L2 {gain:+.0%}")


@_claim("Sec. IV", "scaling the cache hierarchy beats a baseline cache "
        "hierarchy with high-bandwidth DRAM")
def _sec4_cache_beats_dram(b: Battery) -> Verdict:
    cache, dram = (b.exploration.average_gain(l) for l in ("l1+l2", "dram"))
    return cache > dram, f"L1+L2 {cache:+.0%} vs DRAM {dram:+.0%}"


@_claim("Sec. IV", "solving the problem in isolation can lead to even more "
        "congestion elsewhere in the memory system")
def _sec4_congestion_moves(b: Battery) -> Verdict:
    runs = b.exploration.runs
    moved = [
        name for name in b.exploration.benchmarks
        if runs["l2"][name].dram_schedq.full_fraction
        > runs["baseline"][name].dram_schedq.full_fraction + 0.05
    ]
    return (len(moved) >= 2,
            f"{len(moved)} kernels' DRAM sched queues fill > 5 points more "
            "under L2 scaling")


@dataclass(frozen=True)
class Check:
    """One claim's verdict and supporting evidence."""

    name: str
    passed: bool
    evidence: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]
    #: The reports the checks were judged from (None for hand-built ones).
    battery: Battery | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def check(self, claim_id: str) -> Check:
        return next(c for c in self.checks if c.name == claim_id)

    def to_table(self) -> str:
        rows = [
            [c.name, "PASS" if c.passed else "FAIL", c.evidence]
            for c in self.checks
        ]
        verdict = "REPRODUCED" if self.passed else "NOT REPRODUCED"
        return render_table(
            ["check", "verdict", "evidence"], rows,
            title=f"Reproduction validation: {verdict}", align="lll")


def judge_claims(battery: Battery) -> ValidationReport:
    """Every row of :data:`CLAIMS`, judged against ``battery``."""
    return ValidationReport(
        checks=tuple(
            Check(c.id, *c.judge(battery)) for c in CLAIMS.values()),
        battery=battery)


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
    experiments += [
        congestion_plan(cfg, iteration_scale=iteration_scale, seed=seed)
        for cfg in (config, scale_levels(config, ("l1", "l2", "dram")))
    ]
    experiments.append(exploration_plan(
        config, iteration_scale=iteration_scale, seed=seed))
    return combine(experiments).then(
        lambda reports: judge_claims(Battery(
            dict(zip(PAPER_SUITE, reports[:-3])), *reports[-3:])))


def validate_reproduction(
    *args: Any, runner: BatchRunner | None = None, **kwargs: Any
) -> ValidationReport:
    """Run :func:`validation_plan` on ``runner`` (default: serial)."""
    return run_plan(validation_plan(*args, **kwargs), runner)
