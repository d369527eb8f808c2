"""EXT-2 — per-hop latency breakdown (extends Section II's observation).

Section II infers congestion by comparing effective latencies against the
ideal access latencies.  This extension locates the congestion directly:
per-hop timestamps break the average L2-miss round trip into segments,
and the congestion share (latency beyond the unloaded round trip) is
computed per benchmark.
"""

import pytest

from repro.core.latency_breakdown import breakdown_plan, congestion_share
from repro.runner import run_plan

#: One benchmark per bottleneck class.
CASES = ("sc", "lbm", "leukocyte")


@pytest.mark.benchmark(group="extension")
def test_ext_latency_breakdown(benchmark, baseline_config, scale, save_report):
    def run():
        return {
            name: run_plan(breakdown_plan(
                baseline_config, name, iteration_scale=scale))
            for name in CASES
        }

    breakdowns = benchmark.pedantic(run, rounds=1, iterations=1)
    report = []
    for name, breakdown in breakdowns.items():
        share = congestion_share(breakdown, baseline_config)
        benchmark.extra_info[f"{name}_congestion_share"] = round(share, 2)
        report.append(breakdown.to_table())
        report.append(f"congestion share of the L2-miss round trip: {share:.0%}\n")
    save_report("ext_latency_breakdown", "\n".join(report))

    # The L2-bandwidth-bound benchmark accrues most of its delay before
    # DRAM (queues + response network), the DRAM-bound one inside DRAM.
    sc = breakdowns["sc"]
    lbm = breakdowns["lbm"]
    assert lbm.mean("dram_service") > sc.mean("dram_service")
    sc_cache_side = sc.mean("l2_queue") + sc.mean("response_network")
    assert sc_cache_side > sc.mean("dram_service")

    # Memory-bound benchmarks: most of the observed latency is congestion.
    assert congestion_share(sc, baseline_config) > 0.3
    assert congestion_share(lbm, baseline_config) > 0.3
