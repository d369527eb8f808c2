"""Simulator-throughput benchmarks (engineering, not paper artifacts).

Tracks the simulator's own speed in simulated kilocycles per wall second
on three representative loads.  These are the only benchmarks here where
the *time* column is the result; a large regression means a hot-path
change made the whole experiment harness proportionally slower.
"""

import pytest

from repro import get_benchmark
from repro.gpu import GPU


def _run(config, kernel):
    gpu = GPU(config, kernel)
    gpu.run(max_cycles=5_000_000)
    return gpu


@pytest.mark.benchmark(group="perf")
def test_perf_congested_run(benchmark, baseline_config):
    """sc at 0.25 scale: a heavily congested memory system (worst case for
    per-cycle Python work)."""
    kernel = get_benchmark("sc", 0.25)
    gpu = benchmark(lambda: _run(baseline_config, kernel))
    kcycles_per_s = gpu.cycles / 1000 / benchmark.stats["mean"]
    benchmark.extra_info["sim_kcycles_per_s"] = round(kcycles_per_s, 1)
    # Floors are ~25% of the reference-machine rates (congested ~10k,
    # compute ~25k, magic ~48k kcycles/s) — slack for slower CI runners,
    # tight enough to catch an accidental hot-path regression.
    assert kcycles_per_s > 2.5


@pytest.mark.benchmark(group="perf")
def test_perf_compute_bound_run(benchmark, baseline_config):
    """leukocyte: mostly-idle memory system exercises the fast paths."""
    kernel = get_benchmark("leukocyte", 0.25)
    gpu = benchmark(lambda: _run(baseline_config, kernel))
    kcycles_per_s = gpu.cycles / 1000 / benchmark.stats["mean"]
    benchmark.extra_info["sim_kcycles_per_s"] = round(kcycles_per_s, 1)
    assert kcycles_per_s > 6.0


@pytest.mark.benchmark(group="perf")
def test_perf_magic_mode_run(benchmark, baseline_config):
    """Figure 1 mode: only the SMs are simulated, so this bounds the
    latency-profile sweep's cost."""
    kernel = get_benchmark("sc", 0.25)
    config = baseline_config.with_magic_memory(200)
    gpu = benchmark(lambda: _run(config, kernel))
    kcycles_per_s = gpu.cycles / 1000 / benchmark.stats["mean"]
    benchmark.extra_info["sim_kcycles_per_s"] = round(kcycles_per_s, 1)
    assert kcycles_per_s > 12.0

