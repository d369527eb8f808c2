"""The driver workload: the Sec. IV design-space matrix.

Each pass calls the paper driver once per suite kernel, through its
public entry point, with a serial :class:`~repro.runner.BatchRunner` and
no store, exactly as ``repro explore`` would with ``--jobs 1``.  An
operation is one simulation job.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator

from repro.core.explorer import explore_design_space
from repro.core.export import runs_to_text
from repro.core.metrics import RunMetrics
from repro.runner import BatchRunner, Job
from repro.sim.config import small_gpu
from repro.workloads.suite import PAPER_SUITE

from common import PassResult, model_counts
from tracer import Tracer

#: Output digest per ``kernel:simulator seed``; ``run.py --record``
#: rewrites it.
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Workload name in ``reference.json``.
NAME = "sec4_design_matrix"

#: Simulator seeds with a recorded reference.  The workload seed draws
#: one per kernel: independent draws average out how much one simulator
#: seed moves a kernel's cost, so different workload seeds cost about
#: the same.
VARIANTS = 16

#: Iteration scale: one pass takes a few host seconds.
SCALE = 0.05

#: Fresh processes timed per run for ``setup_s``.  Each runs the driver's
#: import plus the source digest every job key hashes (``code_version``).
SETUP_REPEATS = 5
SETUP_COMMAND = (
    "from repro.core.explorer import explore_design_space; "
    "from repro.runner import code_version; code_version()"
)


class RecordingRunner(BatchRunner):
    """Serial runner that keeps every batch's metrics, in job order."""

    def __init__(self) -> None:
        super().__init__(jobs=1, cache=None)
        self.runs: list[RunMetrics] = []

    def run(self, jobs):  # type: ignore[no-untyped-def]
        results = super().run(jobs)
        self.runs.extend(results)
        return results


def driver(kernel: str, seed: int, runner: BatchRunner) -> None:
    """The six-config matrix of one kernel."""
    explore_design_space(
        small_gpu(), benchmarks=[kernel], iteration_scale=SCALE, seed=seed,
        runner=runner,
    )


def sim_seeds(seed: int) -> dict[str, int]:
    """The simulator seed of each kernel of a workload seed."""
    rng = random.Random(f"{NAME}:{seed}")
    return {kernel: rng.randint(1, VARIANTS) for kernel in PAPER_SUITE}


@contextmanager
def job_timer(latencies_ms: list[float]) -> Iterator[None]:
    """Time each ``Job.execute``: one clock pair per job, far below noise."""
    original = Job.__dict__["execute"]

    def timed(job: Job) -> RunMetrics:
        start = time.perf_counter()
        try:
            return original(job)
        finally:
            latencies_ms.append((time.perf_counter() - start) * 1e3)

    Job.execute = timed  # type: ignore[method-assign]
    try:
        yield
    finally:
        Job.execute = original  # type: ignore[method-assign]


def digest(runs: list[RunMetrics]) -> str:
    return hashlib.sha256(runs_to_text(runs, "csv").encode()).hexdigest()[:16]


def load_reference() -> dict[str, dict[str, str]]:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except (OSError, ValueError):
        return {}


def time_setup(command: str, env: dict[str, str]) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``command`` finishing."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", command], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class DriverWorkload:
    """The paper driver over every kernel; every pass runs the same jobs."""

    def __init__(self, seed: int, env: dict[str, str], traced: bool) -> None:
        self.sim_seeds = sim_seeds(seed)
        reference = load_reference().get(NAME, {})
        self.expected = {
            kernel: reference.get(f"{kernel}:{sim_seed}")
            for kernel, sim_seed in self.sim_seeds.items()
        }
        self.first_model: dict[str, float] | None = None
        self.setup_s = [] if traced else time_setup(SETUP_COMMAND, env)

    def run_pass(self, index: int, tracer: Tracer | None = None) -> PassResult:
        """One driver call per kernel, traced when ``tracer`` is given."""
        per_kernel: list[tuple[str, list[RunMetrics]]] = []
        latencies: list[float] = []
        with job_timer(latencies), (tracer.installed() if tracer else nullcontext()):
            start = time.perf_counter()
            for kernel, sim_seed in self.sim_seeds.items():
                runner = RecordingRunner()
                driver(kernel, sim_seed, runner)
                per_kernel.append((kernel, runner.runs))
            wall = time.perf_counter() - start
        runs = [m for _, kernel_runs in per_kernel for m in kernel_runs]
        checks = []
        failed = sum(1 for m in runs if m.truncated)
        if failed:
            checks.append(f"{failed} run(s) hit the cycle limit")
        for kernel, kernel_runs in per_kernel:
            got = digest(kernel_runs)
            if got != self.expected[kernel]:
                checks.append(
                    f"{kernel} output digest {got} != reference {self.expected[kernel]} "
                    f"(sim seed {self.sim_seeds[kernel]})"
                )
                failed = len(runs)
        model = model_counts(runs)
        self.first_model = self.first_model or model
        if model != self.first_model:  # every pass repeats the same jobs
            checks.append("model counts differ between passes of one seed")
            failed = len(runs)
        return PassResult(
            wall_s=wall,
            op_ms=latencies,
            sim_cycles=sum(m.cycles for m in runs),
            attempted=len(runs),
            failed=failed,
            model=model,
            checks=checks,
        )

    def op_latencies(self, results: list[PassResult]) -> list[float]:
        """Each job's fastest time over the passes, which all run the same jobs.

        The host's speed swings by up to 60% over seconds (see README.md);
        a job's fastest pass is its time when nothing else slowed it.
        """
        return [min(times) for times in zip(*(r.op_ms for r in results))]

    def wall_s(self, results: list[PassResult]) -> float:
        """One driver call made of every job's fastest time."""
        return sum(self.op_latencies(results)) / 1e3

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which is the one simulating."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def details(self, results: list[PassResult]) -> dict[str, object]:
        return {"sim_seeds": self.sim_seeds}

    def close(self) -> None:
        pass


def record_references() -> dict[str, dict[str, str]]:
    """Digest of every kernel under every simulator seed."""
    out: dict[str, str] = {}
    for kernel in PAPER_SUITE:
        for seed in range(1, VARIANTS + 1):
            runner = RecordingRunner()
            driver(kernel, seed, runner)
            out[f"{kernel}:{seed}"] = digest(runner.runs)
        print(f"{kernel}: {VARIANTS} sim seeds", file=sys.stderr)
    return {NAME: out}
