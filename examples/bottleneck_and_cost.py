"""Where is each workload bound, where does latency accrue, and what is
the cheapest fix?

Three analyses beyond the paper's headline results, chained together:

1. name every suite benchmark's bottleneck from its blame profile
   (compute, latency or the Table I level: l1, l2, dram);
2. break one memory-bound benchmark's average miss round trip into
   per-hop segments (which queue adds the cycles?);
3. rank the Section IV configurations by gain-per-cost and print the
   pareto frontier — the paper's stated future work.

Usage::

    python examples/bottleneck_and_cost.py [scale]
"""

import sys

from repro import (
    breakdown_plan,
    congestion_share,
    cost_effectiveness,
    diagnosis_plan,
    explore_design_space,
    pareto_frontier,
    render_cost_effectiveness,
    render_diagnoses,
    run_plan,
    small_gpu,
)
from repro.core.explorer import SECTION_IV_CONFIGS


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    config = small_gpu()

    print("=== 1. bottleneck classification ===", flush=True)
    diagnoses = run_plan(diagnosis_plan(config, iteration_scale=scale))
    print(render_diagnoses(diagnoses))

    print("\n=== 2. latency breakdown of the most cache-congested "
          "benchmark ===", flush=True)
    cache_bound = [d.benchmark for d in diagnoses if d.bottleneck == "l2"]
    target = cache_bound[0] if cache_bound else "sc"
    breakdown = run_plan(breakdown_plan(config, target, iteration_scale=scale))
    print(breakdown.to_table())
    print(f"congestion share of the round trip: "
          f"{congestion_share(breakdown, config):.0%}")

    print("\n=== 3. cost-effectiveness of the Table I design space ===",
          flush=True)
    result = explore_design_space(config, iteration_scale=scale)
    points = cost_effectiveness(result, SECTION_IV_CONFIGS)
    frontier = pareto_frontier(points)
    print(render_cost_effectiveness(points, frontier))
    best = points[0]
    print(f"\nMost cost-effective configuration: {best.label} "
          f"({best.gain:+.0%} for {best.cost:.2f} cost units)")


if __name__ == "__main__":
    main()
