"""Top-down profile construction for ``repro profile``.

:func:`profile_plan` runs one benchmark with a
:class:`~repro.telemetry.WindowSampler` attached and distils its
attribution view into a flat, JSON-ready profile document: the exact
cycle-class partition, the memory-pipeline stall cycles by cause, and
the blame vector charging each stalled cycle to the deepest congested
stage.

:func:`profile_diff` subtracts two profiles of the same benchmark and
explains a speedup the way Section IV narrates it: as stall cycles
*reclaimed* per cause and per blamed stage (where the +59% from L2
scaling comes from, why L1-alone reclaims nothing).

:func:`diagnose` reads the bottleneck off a profile, in the terms of the
Section IV matrix (``compute``, ``latency``, ``l1``, ``l2``, ``dram``).
Config labels come
from the Section IV matrix (``baseline``, ``l1``, ``l2``, ``dram``,
``l1+l2``, ``l2+dram``); :func:`sweep_matrix` crosses them with
benchmarks and seeds into the jobs ``repro campaign run`` and the
service's sweep specs execute.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.core.design_space import scale_levels
from repro.core.explorer import SECTION_IV_CONFIGS, ExplorationResult
from repro.core.metrics import ProbeSpec, RunMetrics
from repro.errors import UsageError
from repro.runner import Job
from repro.runner.job import config_memo_key
from repro.runner.plan import Plan, combine
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.telemetry import DEFAULT_WINDOW
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE

#: Bumped when the profile document layout changes.
PROFILE_SCHEMA = 1

#: Scaled configs :func:`config_for_label` keeps: six labels for each of
#: a few base configs.
LABEL_MEMO_SIZE = 64

#: Blame stage -> the Table I level whose scaling relieves it (crossbar
#: congestion is L1<->L2 bandwidth), or ``latency``.
STAGE_LEVELS = {"dram": "dram", "l2": "l2", "icnt": "l2", "l1": "l1",
                "mem_latency": "latency"}
#: The levels blame is reported over, in Table I order.
BLAME_LEVELS = ("l1", "l2", "dram", "latency")


def config_for_label(config: GPUConfig, label: str) -> GPUConfig:
    """Apply one Section IV scaling label to a base configuration.

    Each (base config, label) pair is scaled once; configs are frozen,
    so callers share the returned object.
    """
    try:
        levels = SECTION_IV_CONFIGS[label]
    except KeyError:
        raise UsageError(
            f"unknown config label {label!r}; choose from "
            + ", ".join(SECTION_IV_CONFIGS)
        ) from None
    memo_key = config_memo_key(config)
    if memo_key is None:
        return scale_levels(config, levels)
    return _scaled(memo_key, levels)


@lru_cache(maxsize=LABEL_MEMO_SIZE)
def _scaled(memo_key: tuple, levels: tuple[str, ...]) -> GPUConfig:
    return scale_levels(memo_key[0], levels)


def sweep_matrix(
    base: GPUConfig,
    labels: Sequence[str],
    benchmarks: Sequence[str],
    seeds: Sequence[int],
    scale: float = 1.0,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> list[Job]:
    """Section IV config labels x benchmarks x seeds, in that nesting."""
    return [
        Job(config, name, seed=seed, iteration_scale=scale,
            max_cycles=max_cycles)
        for config in [config_for_label(base, label) for label in labels]
        for name in benchmarks
        for seed in seeds
    ]


def profile_plan(
    config: GPUConfig,
    benchmark: str,
    *,
    config_label: str = "baseline",
    iteration_scale: float = 1.0,
    seed: int = 1,
    window: int = DEFAULT_WINDOW,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> Plan[dict[str, Any]]:
    """One run of ``benchmark`` with attribution attached, as a profile.

    ``config`` is profiled as given; ``config_label`` is recorded in the
    document (apply :func:`config_for_label` first to profile a scaled
    point).  The document is self-contained and JSON-serializable.
    """
    job = Job(config, benchmark, seed=seed, iteration_scale=iteration_scale,
              max_cycles=max_cycles,
              probes=ProbeSpec(attribution_window=window))

    def fold(runs: Sequence[RunMetrics]) -> dict[str, Any]:
        [metrics] = runs
        attribution = metrics.extras["attribution"]
        return {
            "schema": PROFILE_SCHEMA,
            "benchmark": benchmark,
            "config": config_label,
            "scale": iteration_scale,
            "seed": seed,
            "cycles": metrics.cycles,
            "instructions": metrics.instructions,
            "ipc": metrics.ipc,
            "truncated": metrics.truncated,
            "sm_cycles": metrics.sm_cycles,
            "classes": dict(attribution["classes"]),
            "stalls": dict(metrics.mem_stall_cycles_by_cause),
            "blame": dict(attribution["blame"]),
            "conserved": attribution["conserved"],
            "window": attribution["window"],
            "blame_threshold": attribution["blame_threshold"],
            "max_windows": attribution["max_windows"],
            "dropped": attribution["dropped"],
            "windows": attribution["windows"],
        }

    return Plan((job,), fold)


@dataclass(frozen=True)
class Diagnosis:
    """One benchmark's bottleneck, read off its profile document."""

    benchmark: str
    #: ``compute``, ``latency``, ``l1``, ``l2`` or ``dram``.
    bottleneck: str
    #: The largest cycle class and its share of SM-cycles.
    dominant: str
    dominant_share: float
    #: Verdict level -> stall cycles blamed on it (see STAGE_LEVELS).
    blame: dict[str, int]


def diagnose(document: dict[str, Any]) -> Diagnosis:
    """The bottleneck of one :func:`profile_plan` document.

    ``compute`` when ``issue`` is the dominant cycle class; ``latency``
    when nothing is blamed, or ``no_ready_warp`` dominates and blame is
    negligible next to it (fewer blamed stall cycles than cycles with no
    ready warp); otherwise the level with the most blame.
    """
    classes = document["classes"]
    dominant = max(classes, key=classes.get)
    blame = dict.fromkeys(BLAME_LEVELS, 0)
    for stage, stalled in document["blame"].items():
        blame[STAGE_LEVELS[stage]] += stalled
    blamed = sum(blame.values())
    if dominant == "issue":
        verdict = "compute"
    elif not blamed or (dominant == "no_ready_warp"
                        and blamed < classes[dominant]):
        verdict = "latency"
    else:
        verdict = max(blame, key=blame.get)
    share = classes[dominant] / (document["sm_cycles"] or 1)
    return Diagnosis(document["benchmark"], verdict, dominant, share, blame)


def diagnosis_plan(
    config: GPUConfig,
    benchmarks: Sequence[str] = PAPER_SUITE,
    iteration_scale: float = 1.0,
    seed: int = 1,
) -> Plan[list[Diagnosis]]:
    """One profiled run per benchmark, each diagnosed."""
    return combine([
        profile_plan(config, name, iteration_scale=iteration_scale, seed=seed)
        for name in benchmarks
    ]).then(lambda documents: [diagnose(d) for d in documents])


def counterfactual_agrees(
    diagnosis: Diagnosis, result: ExplorationResult
) -> bool:
    """Does Section IV's isolated scaling confirm the verdict?  A level
    must gain most; ``compute``/``latency`` only if none gains > 15%."""
    speedups = {level: result.speedup(level, diagnosis.benchmark)
                for level in ("l1", "l2", "dram")}
    if diagnosis.bottleneck in speedups:
        return diagnosis.bottleneck == max(speedups, key=speedups.get)
    return max(speedups.values()) <= 1.15


def render_diagnoses(diagnoses: Sequence[Diagnosis]) -> str:
    """Verdicts, dominant cycle classes and each level's blame share."""
    rows = []
    for d in diagnoses:
        blamed = sum(d.blame.values())
        rows.append([d.benchmark, d.bottleneck,
                     f"{d.dominant} {d.dominant_share:.0%}", blamed,
                     *(f"{d.blame[level] / blamed:.0%}" if blamed else "-"
                       for level in BLAME_LEVELS)])
    return render_table(
        ["benchmark", "bottleneck", "dominant class", "blamed stalls",
         *(f"{level} blame" for level in BLAME_LEVELS)],
        rows, title="Bottleneck classification", align="lllrrrrr")


def profile_diff(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Explain ``b``'s speedup over ``a`` as reclaimed stall cycles.

    Both profiles must come from :func:`profile_plan` on the *same*
    benchmark/scale/seed, so instruction counts match and every cycle
    difference is attributable.  Positive "reclaimed" numbers mean ``b``
    spends fewer cycles there than ``a``.
    """
    for key in ("benchmark", "scale", "seed"):
        if a.get(key) != b.get(key):
            raise UsageError(
                f"profile diff requires matching {key}: "
                f"{a.get(key)!r} vs {b.get(key)!r}"
            )
    def keys_of(field: str) -> dict[str, None]:
        # Ordered union of the two profiles' keys for this field.
        return dict.fromkeys(list(a.get(field, {})) + list(b.get(field, {})))

    reclaimed = {
        field: {
            key: a.get(field, {}).get(key, 0) - b.get(field, {}).get(key, 0)
            for key in keys_of(field)
        }
        for field in ("classes", "stalls", "blame")
    }
    return {
        "schema": PROFILE_SCHEMA,
        "benchmark": a["benchmark"],
        "scale": a["scale"],
        "seed": a["seed"],
        "a": {
            "config": a["config"],
            "cycles": a["cycles"],
            "ipc": a["ipc"],
        },
        "b": {
            "config": b["config"],
            "cycles": b["cycles"],
            "ipc": b["ipc"],
        },
        "speedup": b["ipc"] / a["ipc"] if a["ipc"] else 0.0,
        "cycles_saved": a["cycles"] - b["cycles"],
        "sm_cycles_saved": a["sm_cycles"] - b["sm_cycles"],
        "classes_reclaimed": reclaimed["classes"],
        "stalls_reclaimed": reclaimed["stalls"],
        "blame_reclaimed": reclaimed["blame"],
    }
