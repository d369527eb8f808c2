"""Full-simulation runs with the sanitizer attached (positive path).

The acceptance bar for the sanitizer is that it proves the invariants on
*real* workloads, not just hand-built structures: three paper-suite
benchmarks run to completion on the tiny configuration with every check
enabled, every tracked request retires, and attaching the sanitizer does
not perturb simulated behaviour.
"""

import pytest

from repro.analysis import Sanitizer
from repro.core.metrics import ProbeSpec, run_kernel
from repro.gpu import GPU
from repro.sim.config import tiny_gpu
from repro.workloads.suite import get_benchmark

#: Three suite entries with deliberately different memory behaviour:
#: nn (streaming), sc (cache-thrashing random), lbm (write-heavy).
BENCHMARKS = ("nn", "sc", "lbm")
SCALE = 0.2


@pytest.mark.parametrize("name", BENCHMARKS)
class TestSuiteRunsClean:
    def test_every_cycle_checked(self, name):
        gpu = GPU(tiny_gpu(), get_benchmark(name, SCALE))
        sanitizer = Sanitizer.attach(gpu, interval=1)
        gpu.run(max_cycles=500_000)
        stats = sanitizer.stats()
        # on_cycle ran every cycle plus the finalize check.
        assert stats["checks_run"] == gpu.cycles + 1
        assert stats["requests_tracked"] > 0
        assert stats["requests_retired"] == stats["requests_tracked"]
        assert stats["requests_in_flight"] == 0

    def test_epoch_interval_checked(self, name):
        gpu = GPU(tiny_gpu(), get_benchmark(name, SCALE))
        sanitizer = Sanitizer.attach(gpu, interval=64)
        gpu.run(max_cycles=500_000)
        stats = sanitizer.stats()
        assert 0 < stats["checks_run"] < gpu.cycles
        assert stats["requests_in_flight"] == 0

    def test_observationally_transparent(self, name):
        """Attaching the sanitizer must not change simulated behaviour.

        The plain run fast-forwards over idle windows while the sanitized
        run (observers force the naive loop) steps every cycle, so this
        also pins the fast-forward path to the per-cycle one.
        """
        plain = GPU(tiny_gpu(), get_benchmark(name, SCALE))
        plain.run(max_cycles=500_000)
        checked = GPU(tiny_gpu(), get_benchmark(name, SCALE))
        Sanitizer.attach(checked, interval=1)
        checked.run(max_cycles=500_000)
        assert checked.sim.cycles_fast_forwarded == 0
        assert checked.cycles == plain.cycles
        assert checked.instructions == plain.instructions

    def test_transparent_vs_naive_loop(self, name):
        """Sanitized run == run with fast-forward explicitly disabled:
        the observer gate and the manual switch take the same path."""
        naive = GPU(tiny_gpu(), get_benchmark(name, SCALE))
        naive.sim.fast_forward_enabled = False
        naive.run(max_cycles=500_000)
        checked = GPU(tiny_gpu(), get_benchmark(name, SCALE))
        Sanitizer.attach(checked, interval=1)
        checked.run(max_cycles=500_000)
        assert checked.cycles == naive.cycles
        assert checked.instructions == naive.instructions


class TestRunKernelIntegration:
    def test_extras_carry_sanitizer_stats(self):
        metrics = run_kernel(
            tiny_gpu(), get_benchmark("nn", SCALE),
            probes=ProbeSpec(sanitize_interval=16))
        stats = metrics.extras["sanitizer"]
        assert stats["requests_in_flight"] == 0
        assert stats["requests_retired"] == stats["requests_tracked"] > 0

    def test_disabled_by_default(self):
        metrics = run_kernel(tiny_gpu(), get_benchmark("nn", SCALE))
        assert "sanitizer" not in metrics.extras

    def test_magic_memory_mode(self):
        config = tiny_gpu().with_magic_memory(200)
        metrics = run_kernel(
            config, get_benchmark("nn", SCALE),
            probes=ProbeSpec(sanitize_interval=1))
        stats = metrics.extras["sanitizer"]
        assert stats["requests_in_flight"] == 0
        assert stats["requests_retired"] == stats["requests_tracked"] > 0
