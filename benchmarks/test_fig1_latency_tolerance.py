"""E1/E2 — Figure 1: performance variation with increasing L1 miss latency.

Regenerates the paper's latency-tolerance profile for the full suite:
IPC under a fixed-latency memory system (x = 0..800 cycles), normalized
to the true baseline.  Each Figure 1 row of the claim table
(`repro.core.validation.CLAIMS`) is one test: the curves fall, the
compute-bound curve is flat, the memory-bound kernels sit far from their
plateau, and the 1.0x intercepts — the effective baseline latencies —
lie beyond the unloaded L2 and DRAM round trips.
"""

import pytest

from repro.core.report import render_figure1
from repro.core.validation import CLAIMS


@pytest.mark.benchmark(group="fig1")
@pytest.mark.parametrize("claim_id", [c for c in CLAIMS if c.startswith("fig1")])
def test_claim(check):
    assert check.passed, check.evidence


@pytest.mark.benchmark(group="fig1")
def test_fig1_latency_tolerance(benchmark, validation, save_report):
    profiles = benchmark.pedantic(
        lambda: list(validation.battery.profiles.values()),
        rounds=1, iterations=1)
    save_report("fig1_latency_tolerance", render_figure1(profiles))
