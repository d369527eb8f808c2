"""E5/E6/E7 — Section IV: isolated, synergistic and L1-alone scaling.

Regenerates the per-level and combined speedups of the Table I design
space: the paper reports average speedups of +4% (L1), +59% (L2), +11%
(DRAM), +69% (L1+L2) and +76% (L2+DRAM).  Each Section IV row of the
claim table is one test: L2 dominates, the combinations are
super-additive, isolated L1 scaling backfires and L1+L2 recovers it,
cache scaling beats high-bandwidth DRAM, and relieving the L2 alone
moves congestion down to DRAM.
"""

import pytest

from repro.core.report import render_section_iv
from repro.core.validation import CLAIMS
from repro.utils.tables import render_table


@pytest.mark.benchmark(group="sec4")
@pytest.mark.parametrize("claim_id", [c for c in CLAIMS if c.startswith("sec4")])
def test_claim(check):
    assert check.passed, check.evidence


@pytest.mark.benchmark(group="sec4")
def test_sec4_design_space(benchmark, validation, save_report):
    battery = benchmark.pedantic(
        lambda: validation.battery, rounds=1, iterations=1)
    result = battery.exploration
    save_report("sec4_speedups", render_section_iv(result))
    save_report("sec4_synergy", battery.synergy.to_table())
    degraded = result.degraded_benchmarks("l1")
    rows = [
        [name,
         f"{result.speedup('l1', name):.3f}x",
         f"{result.speedup('l1+l2', name):.3f}x"]
        for name in result.benchmarks
    ]
    save_report(
        "sec4_l1_counterproductive",
        render_table(
            ["benchmark", "L1 alone", "L1+L2"], rows,
            title="Counter-productive isolated L1 scaling "
                  f"(degraded: {', '.join(degraded) or 'none'})"))
