"""Quickstart: simulate one GPGPU benchmark and inspect its bottleneck.

Runs the `lbm` model (a DRAM-heavy streaming stencil) on the default
reduced-scale GTX480-like configuration and prints the metrics the paper's
characterization is built from: IPC, cache hit rates, the average L1 miss
round trip, how full each memory-system queue ran, and the bottleneck
``repro diagnose`` names from the run's blame profile.

Usage::

    python examples/quickstart.py [benchmark] [scale]
"""

import sys

from repro import BatchRunner, diagnose, small_gpu
from repro.core.profile import profile_plan

def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "lbm"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    config = small_gpu()
    print(f"Simulating {benchmark!r} (iteration scale {scale}) on "
          f"{config.core.n_sms} SMs / {config.n_partitions} partitions ...")
    # A profiled run: its metrics plus the blame that names the bottleneck.
    plan = profile_plan(config, benchmark, iteration_scale=scale)
    [metrics] = BatchRunner.serial().run(plan.jobs)
    document = plan.fold([metrics])

    print(f"\n  cycles               {metrics.cycles:>10}")
    print(f"  instructions         {metrics.instructions:>10}")
    print(f"  IPC                  {metrics.ipc:>10.3f}")
    print(f"  L1 hit rate          {metrics.l1_hit_rate:>10.1%}")
    print(f"  L2 hit rate          {metrics.l2_hit_rate:>10.1%}")
    print(f"  avg L1 miss latency  {metrics.l1_avg_miss_latency:>10.0f} cycles")
    print("\n  Queue full-fractions (of their usage lifetime):")
    print(f"    L1 miss queues     {metrics.l1_missq.full_fraction:>8.1%}")
    print(f"    L2 access queues   {metrics.l2_accessq.full_fraction:>8.1%}")
    print(f"    L2 response queues {metrics.l2_respq.full_fraction:>8.1%}")
    print(f"    DRAM sched queues  {metrics.dram_schedq.full_fraction:>8.1%}")
    print(f"\n  DRAM row-buffer hit rate {metrics.dram_row_hit_rate:.1%}, "
          f"data-bus utilization {metrics.dram_bus_utilization:.1%}")

    # The bottleneck, read off the same run's blame profile.
    print(f"\n  Dominant constraint: {diagnose(document).bottleneck}")


if __name__ == "__main__":
    main()
