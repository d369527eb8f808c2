"""Top-down profile construction for ``repro profile``.

:func:`profile_plan` runs one benchmark with the
:class:`~repro.telemetry.AttributionProbe` attached and distils the
result into a flat, JSON-ready profile document: the exact cycle-class
partition, the memory-pipeline stall cycles by cause, and the blame
vector charging each stalled cycle to the deepest congested stage.

:func:`profile_diff` subtracts two profiles of the same benchmark and
explains a speedup the way Section IV narrates it: as stall cycles
*reclaimed* per cause and per blamed stage (where the +59% from L2
scaling comes from, why L1-alone reclaims nothing).  Config labels come
from the Section IV matrix (``baseline``, ``l1``, ``l2``, ``dram``,
``l1+l2``, ``l2+dram``); :func:`sweep_matrix` crosses them with
benchmarks and seeds into the jobs ``repro campaign run`` and the
service's sweep specs execute.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import Any

from repro.core.design_space import scale_levels
from repro.core.explorer import SECTION_IV_CONFIGS
from repro.core.metrics import ProbeSpec, RunMetrics
from repro.errors import UsageError
from repro.runner import Job
from repro.runner.job import config_memo_key
from repro.runner.plan import Plan
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.telemetry import DEFAULT_WINDOW

#: Bumped when the profile document layout changes.
PROFILE_SCHEMA = 1

#: Scaled configs :func:`config_for_label` keeps: six labels for each of
#: a few base configs.
LABEL_MEMO_SIZE = 64


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
            "windows": attribution["windows"],
        }

    return Plan((job,), fold)


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
