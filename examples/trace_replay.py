"""Record, inspect and replay memory traces.

Demonstrates the trace infrastructure:

1. record one of the suite benchmarks into a plain-text trace;
2. replay it and confirm the simulation is cycle-identical;
3. build a kernel from a *lane-level* address trace through the Fermi
   coalescer, and inspect its coalescing statistics.

Usage::

    python examples/trace_replay.py [trace_path]
"""

import sys
import tempfile
from pathlib import Path

from repro import run_kernel, small_gpu, get_benchmark
from repro.cores.coalescer import strided_lanes, unit_stride_lanes
from repro.errors import SimulationError
from repro.workloads.trace import (
    coalesce_lane_trace,
    load_trace,
    record_program,
    save_trace,
    trace_kernel,
)


def main() -> None:
    config = small_gpu()
    kernel = get_benchmark("sc", 0.25)

    # 1. record
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(tempfile.gettempdir()) / "sc.trace")
    text = record_program(
        kernel, config.core.n_sms, config.core.warps_per_sm, seed=1)
    save_trace(path, text)
    print(f"recorded {kernel.name!r}: {len(text.splitlines())} trace lines "
          f"-> {path}")

    # 2. replay
    replay = trace_kernel(load_trace(path), mlp_limit=kernel.mlp_limit)
    original = run_kernel(config, kernel, seed=1)
    replayed = run_kernel(config, replay, seed=1)
    print(f"original: {original.cycles} cycles, IPC {original.ipc:.3f}")
    print(f"replayed: {replayed.cycles} cycles, IPC {replayed.ipc:.3f}")
    if replayed.cycles != original.cycles:
        raise SimulationError(
            f"replay must be exact: {replayed.cycles} cycles vs "
            f"{original.cycles} recorded")
    print("replay is cycle-exact.")

    # 3. lane-level trace through the coalescer
    accesses = []
    for i in range(64):
        accesses.append(("load", unit_stride_lanes(i * 4096)))   # coalesced
        accesses.append(("load", strided_lanes(i * 4096, 512)))  # divergent
    instructions, coalescer = coalesce_lane_trace(
        accesses, line_bytes=config.line_bytes, compute_between=4)
    stats = coalescer.stats
    print(f"\nlane-level trace: {stats.accesses} warp accesses -> "
          f"{stats.transactions} transactions "
          f"({stats.mean_transactions_per_access:.1f} per access, "
          f"{stats.fully_coalesced_fraction:.0%} fully coalesced)")
    lane_kernel = trace_kernel(
        {(sm, 0): list(instructions) for sm in range(config.core.n_sms)},
        name="lane-trace", mlp_limit=4)
    metrics = run_kernel(config, lane_kernel)
    print(f"lane-trace run: IPC {metrics.ipc:.3f}, "
          f"L1 hit rate {metrics.l1_hit_rate:.0%}, "
          f"avg miss latency {metrics.l1_avg_miss_latency:.0f} cy")


if __name__ == "__main__":
    main()
