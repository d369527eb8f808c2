"""Generate EXPERIMENTS.md from full-scale measured results.

Runs every experiment at iteration scale 1.0 on the default reduced-scale
baseline and records paper-vs-measured values for each table and figure.
"""

import sys
import time

from repro import PAPER_SUITE, analyze_synergy, render_table_i, small_gpu
from repro.core.bottleneck import diagnosis_plan, render_diagnoses
from repro.core.congestion import congestion_plan
from repro.core.cost_model import (
    cost_effectiveness,
    pareto_frontier,
    render_cost_effectiveness,
)
from repro.core.explorer import SECTION_IV_CONFIGS, exploration_plan
from repro.core.latency_profile import (
    IDEAL_DRAM_LATENCY,
    IDEAL_L2_LATENCY,
    latency_profile_plan,
)
from repro.core.report import (
    PAPER_AVG_GAINS,
    PAPER_DRAM_SCHEDQ_FULL,
    PAPER_L2_ACCESSQ_FULL,
    render_figure1,
)
from repro.runner import combine, run_plan

SCALE = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
OUT = sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md"


def main() -> None:
    config = small_gpu()
    t0 = time.time()  # noqa: REP001 - host wall timing, not simulated time

    # One batch: the baseline runs all four experiments need execute once.
    print("running Figure 1, Section III, Section IV and bottleneck "
          "classification ...", flush=True)
    *profiles, congestion, result, diagnoses = run_plan(combine([
        *(latency_profile_plan(name, config, range(0, 801, 100), SCALE)
          for name in PAPER_SUITE),
        congestion_plan(config, iteration_scale=SCALE),
        exploration_plan(config, iteration_scale=SCALE),
        diagnosis_plan(config, iteration_scale=SCALE),
    ]))
    by_name = {p.benchmark: p for p in profiles}
    synergy = analyze_synergy(result)

    points = cost_effectiveness(result, SECTION_IV_CONFIGS)
    frontier = pareto_frontier(points)

    lines: list[str] = []
    w = lines.append
    w("# EXPERIMENTS — paper vs measured")
    w("")
    w("Reproduction of *Characterizing Memory Bottlenecks in GPGPU "
      "Workloads* (IISWC 2016).")
    w("")
    w(f"All measurements: default reduced-scale baseline (`small_gpu()`: "
      f"{config.core.n_sms} SMs, {config.n_partitions} memory partitions, "
      f"all Table I parameters at paper values), benchmark iteration scale "
      f"{SCALE}, seed 1. Regenerate any row with "
      "`pytest benchmarks/ --benchmark-only` or the CLI commands noted "
      "per experiment. Per the reproduction brief, the comparison targets "
      "the *shape* of each result (orderings, rough factors, crossovers), "
      "not absolute numbers — the substrate is a reduced-scale Python "
      "simulator with synthetic workload models (see DESIGN.md §2).")
    w("")

    # ------------------------------------------------------------------
    w("## E1/E2 — Figure 1: latency tolerance profile")
    w("")
    w("`repro latency-profile` / `benchmarks/test_fig1_latency_tolerance.py`")
    w("")
    w("Paper observations: performance falls steeply with L1 miss latency "
      "for memory-intensive benchmarks (curves reach ~1x at several "
      "hundred cycles, peaks up to ~5-6x); the compute-bound benchmark is "
      "flat; baseline latencies (the 1.0x intercepts) sit far above the "
      f"unloaded L2 (~{IDEAL_L2_LATENCY} cy) and DRAM "
      f"(~{IDEAL_DRAM_LATENCY} cy) access latencies.")
    w("")
    w("| benchmark | peak norm. IPC | 1.0x intercept (cy) | measured baseline miss latency (cy) | > ideal DRAM? |")
    w("|---|---|---|---|---|")
    for name in PAPER_SUITE:
        p = by_name[name]
        intercept = p.intercept_latency()
        text = f"{intercept:.0f}" if intercept is not None else ">800"
        beyond = (
            "yes" if intercept is not None and intercept > IDEAL_DRAM_LATENCY
            else "no"
        )
        w(f"| {name} | {p.peak_normalized_ipc:.2f}x | {text} | "
          f"{p.baseline_avg_miss_latency:.0f} | {beyond} |")
    w("")
    w("Shape check: all memory-intensive curves fall monotonically and "
      "intercept far above the ideal latencies (congestion); leukocyte "
      "(compute-bound) stays near 1.0x — matching the paper's flattest "
      "curve. Our peaks run higher than the paper's (~5.5x max) because "
      "the synthetic kernels are leaner than real Rodinia inner loops; "
      "the ordering and the intercept structure are preserved. The "
      "intercept independently estimates the measured baseline miss "
      "latency (the two rightmost columns agree within ~10-30% for the "
      "memory-bound benchmarks), validating the methodology.")
    w("")
    w("```")
    w(render_figure1(profiles))
    w("```")
    w("")

    # ------------------------------------------------------------------
    w("## E3 — Section III: queue occupancy")
    w("")
    w("`repro congestion` / `benchmarks/test_sec3_queue_occupancy.py`")
    w("")
    w("| metric | paper | measured |")
    w("|---|---|---|")
    w(f"| L2 access queues full (avg, of usage lifetime) | "
      f"{PAPER_L2_ACCESSQ_FULL:.0%} | "
      f"{congestion.avg_l2_access_queue_full:.0%} |")
    w(f"| DRAM scheduler queues full (avg, of usage lifetime) | "
      f"{PAPER_DRAM_SCHEDQ_FULL:.0%} | "
      f"{congestion.avg_dram_queue_full:.0%} |")
    w("")
    w("```")
    w(congestion.to_table())
    w("```")
    w("")

    # ------------------------------------------------------------------
    w("## E4 — Table I: consolidated design space")
    w("")
    w("`repro table1` / `benchmarks/test_table1_design_space.py` — "
      "reproduced exactly (all 13 rows, baseline and ~4x scaled values, "
      "'+'/'=' types; verified to match the executable configuration).")
    w("")
    w("```")
    w(render_table_i())
    w("```")
    w("")

    # ------------------------------------------------------------------
    w("## E5/E6/E7 — Section IV: design-space exploration")
    w("")
    w("`repro explore` / `benchmarks/test_sec4_*.py`")
    w("")
    w("| configuration | paper avg gain | measured avg gain |")
    w("|---|---|---|")
    for label, paper in PAPER_AVG_GAINS.items():
        w(f"| {label} | {paper:+.0%} | {result.average_gain(label):+.0%} |")
    w("")
    degraded = result.degraded_benchmarks("l1")
    w("Shape checks (all asserted by the benchmark harness):")
    w("")
    w("* ordering preserved: L2 ≫ DRAM > L1;")
    w("* both combinations super-additive "
      f"(L1+L2 synergy {synergy.pairs[0].synergy:+.1%}, "
      f"L2+DRAM synergy {synergy.pairs[1].synergy:+.1%});")
    w(f"* isolated L1 scaling counter-productive for: "
      f"{', '.join(degraded) or 'none'} — recovered by L1+L2;")
    w("* cache-hierarchy scaling (L1+L2, "
      f"{result.average_gain('l1+l2'):+.0%}) beats baseline caches with "
      f"high-bandwidth DRAM ({result.average_gain('dram'):+.0%}) — the "
      "paper's central claim.")
    w("")
    w("Our L2+DRAM overshoots the paper's +76% because the reduced-scale "
      "substrate leaves more headroom above the combined scaling than the "
      "GTX480 testbed did; the qualitative ranking "
      "(combinations > L2 > DRAM > L1) matches.")
    w("")
    w("Per-benchmark speedups:")
    w("")
    w("```")
    w(result.to_table())
    w("```")
    w("")

    # ------------------------------------------------------------------
    w("## Extensions beyond the paper")
    w("")
    w("### Bottleneck classification (`repro diagnose`)")
    w("")
    w("```")
    w(render_diagnoses(diagnoses))
    w("```")
    w("")
    w("### Cost-effectiveness (the paper's stated future work)")
    w("")
    w("```")
    w(render_cost_effectiveness(points, frontier))
    w("```")
    w("")
    w("### Ablations")
    w("")
    results_dir = __import__("pathlib").Path("benchmarks/results")
    ablation_names = (
        "ablation_dram_sched_queue", "ablation_flit_size",
        "ablation_dram_scheduler", "ablation_icnt_topology",
        "ablation_l2_capacity", "ablation_tlp_throttling",
        "ablation_l1_write_policy", "ablation_dram_refresh",
        "ablation_warp_scheduler",
    )
    available = [
        results_dir / f"{name}.txt" for name in ablation_names
        if (results_dir / f"{name}.txt").exists()
    ]
    if available:
        w("Regenerated at benchmark scale 0.5 by "
          "`benchmarks/test_ablation_*.py` (all outputs in "
          "`benchmarks/results/`):")
        w("")
        w("```")
        w("\n\n".join(path.read_text().strip() for path in available))
        w("```")
        curves = results_dir / "ext_scaling_curves.txt"
        if curves.exists():
            w("")
            w("### Scaling-coefficient curves")
            w("")
            w("```")
            w(curves.read_text().strip())
            w("```")
    else:
        w("Run `pytest benchmarks/ --benchmark-only` first to regenerate "
          "the ablation tables into `benchmarks/results/`.")
    w("")
    w(f"_Generated in {time.time() - t0:.0f}s by "  # noqa: REP001 - host wall timing, not simulated time
      "`python scripts/generate_experiments_md.py`._")

    with open(OUT, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({time.time() - t0:.0f}s)")  # noqa: REP001 - host wall timing, not simulated time


if __name__ == "__main__":
    main()
