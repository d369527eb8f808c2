"""The unit of batch execution: one simulation as a pure, picklable value.

A :class:`Job` captures everything that determines a simulation's outcome
— the frozen :class:`~repro.sim.config.GPUConfig`, the suite benchmark
name, the seed, the iteration scale, the cycle budget and the optional
observers (:class:`~repro.core.metrics.ProbeSpec`) — and nothing else,
so it can cross a process boundary and serve as a cache key.
Kernels are referenced *by name* (closures inside
:class:`~repro.workloads.program.KernelProgram` do not pickle); the worker
rebuilds the kernel from the suite spec, which is deterministic.

:func:`Job.key` is a stable content hash over the config's dataclass
fields, the run parameters, the probe spec when one is set, and
:func:`code_version` (a digest of the package's own sources), so results cached on disk are invalidated by any
change to either the experiment or the simulator.  Encoding a config is
most of a key's cost, so each distinct config is encoded to JSON once; a
sweep's jobs share a handful of configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.core.metrics import ProbeSpec, RunMetrics, run_kernel
from repro.errors import UsageError
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.workloads.suite import get_benchmark


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``.py`` source in the repro package.

    Part of every job key: a simulator change silently invalidates all
    cached results instead of serving metrics computed by old code.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Distinct configs whose JSON :func:`_config_json` keeps.  A sweep needs
#: one base config times the six Section IV labels; the bound only caps
#: what a long-lived service accumulates.
CONFIG_MEMO_SIZE = 64

#: Field types whose equal values always encode to the same JSON.
_EXACT_TYPES = frozenset({int, bool, str, type(None)})


def config_memo_key(config: GPUConfig) -> tuple | None:
    """A memo key under which only identically encoded configs meet.

    Dataclass equality is looser than JSON: ``200 == 200.0``,
    ``True == 1`` and ``0.0 == -0.0``, yet each pair encodes differently.
    The key pairs the config with the type of every field, one level of
    sub-configs deep, and is None (do not memoize) when any field holds
    something other than an int, bool, str or None, such as the float or
    list a hand-written config dict can carry.
    """
    types: list[type] = []
    for value in vars(config).values():
        if hasattr(value, "__dataclass_fields__"):
            types.extend(map(type, vars(value).values()))
        else:
            types.append(type(value))
    if not _EXACT_TYPES.issuperset(types):
        return None
    return config, tuple(types)


#: Compact sorted-key JSON, the encoding every key is hashed from.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=CONFIG_MEMO_SIZE)
def _memo_json(memo_key: tuple) -> str:
    return _encode(dataclasses.asdict(memo_key[0]))


def _config_json(config: GPUConfig) -> str:
    """``config``'s fields as compact sorted-key JSON, once per config."""
    memo_key = config_memo_key(config)
    if memo_key is None:
        return _encode(dataclasses.asdict(config))
    return _memo_json(memo_key)


@dataclasses.dataclass(frozen=True)
class Job:
    """One ``run_kernel`` invocation as a value."""

    config: GPUConfig
    kernel_name: str
    seed: int = 1
    iteration_scale: float = 1.0
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: Observers to attach; None runs uninstrumented.
    probes: ProbeSpec | None = None

    def __post_init__(self) -> None:
        if not self.kernel_name or not isinstance(self.kernel_name, str):
            raise UsageError("Job.kernel_name must be a suite benchmark name")
        if self.max_cycles < 1:
            raise UsageError("Job.max_cycles must be >= 1")
        if self.iteration_scale <= 0:
            raise UsageError("Job.iteration_scale must be > 0")

    def key(self) -> str:
        """Stable content hash identifying this job's result.

        The hash is over the compact sorted-key JSON of the job's fields
        and :func:`code_version`, spelled out in sorted key order so the
        config's memoized JSON is spliced in rather than re-encoded.  The
        ``probes`` entry appears only when a probe spec is set, so every
        uninstrumented key is independent of the probe machinery.
        """
        probes = (
            "" if self.probes is None
            else f',"probes":{_encode(dataclasses.asdict(self.probes))}'
        )
        payload = (
            f'{{"code":{_encode(code_version())}'
            f',"config":{_config_json(self.config)}'
            f',"iteration_scale":{_encode(self.iteration_scale)}'
            f',"kernel":{_encode(self.kernel_name)}'
            f',"max_cycles":{_encode(self.max_cycles)}'
            f'{probes}'
            f',"seed":{_encode(self.seed)}}}'
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """One-line human identification for logs and error summaries."""
        parts = [f"seed={self.seed}"]
        if self.iteration_scale != 1.0:
            parts.append(f"scale={self.iteration_scale}")
        if self.config.magic_memory:
            parts.append(f"magic_latency={self.config.magic_latency}")
        return f"{self.kernel_name}({', '.join(parts)})"

    def execute(self) -> RunMetrics:
        """Run the simulation in the current process."""
        kernel = get_benchmark(self.kernel_name, self.iteration_scale)
        return run_kernel(
            self.config, kernel, seed=self.seed, max_cycles=self.max_cycles,
            probes=self.probes,
        )
