"""E3 — Section III: measuring the bandwidth bottleneck.

Regenerates the queue-occupancy measurement: the fraction of each queue's
usage lifetime spent completely full, per benchmark and averaged over the
suite, on the baseline and with the full Table I scaling.  Each Section
III row of the claim table is one test: substantial congestion at both
levels on the baseline (the paper: 46% / 39%), spread over the suite,
and relieved once every level is scaled.
"""

import pytest

from repro.core.report import render_congestion
from repro.core.validation import CLAIMS


@pytest.mark.benchmark(group="sec3")
@pytest.mark.parametrize("claim_id", [c for c in CLAIMS if c.startswith("sec3")])
def test_claim(check):
    assert check.passed, check.evidence


@pytest.mark.benchmark(group="sec3")
def test_sec3_queue_occupancy(benchmark, validation, save_report):
    battery = benchmark.pedantic(
        lambda: validation.battery, rounds=1, iterations=1)
    baseline, relieved = battery.congestion, battery.scaled_congestion
    save_report("sec3_queue_occupancy", render_congestion(baseline))
    save_report(
        "sec3_scaled_queue_occupancy",
        relieved.to_table()
        + f"\n\nbaseline L2 accessQ full: {baseline.avg_l2_access_queue_full:.0%}"
        + f" -> scaled: {relieved.avg_l2_access_queue_full:.0%}"
        + f"\nbaseline DRAM schedQ full: {baseline.avg_dram_queue_full:.0%}"
        + f" -> scaled: {relieved.avg_dram_queue_full:.0%}",
    )
