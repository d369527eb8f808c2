"""Shared fixtures for the experiment-regeneration benchmarks.

Each benchmark module regenerates one artifact of the paper (a figure,
a table, or a reported aggregate).  All experiments run on the reduced-
scale baseline (``small_gpu``); the iteration scale can be adjusted with
the ``REPRO_BENCH_SCALE`` environment variable (default 0.5 — halves each
kernel's iteration count to keep the full suite's wall time reasonable
while leaving the congestion behaviour intact).

Results are printed AND written to ``benchmarks/results/*.txt`` so the
regenerated artifacts survive pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import small_gpu
from repro.core.validation import validate_reproduction

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Iteration scale for every experiment (env-overridable).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE


@pytest.fixture(scope="session")
def baseline_config():
    return small_gpu()


@pytest.fixture(scope="session")
def save_report():
    """Writer for regenerated artifacts: save_report(name, text)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> pathlib.Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}] written to {path}\n{text}")
        return path

    return _save


@pytest.fixture(scope="session")
def validation(baseline_config):
    """Fig. 1, Sec. III and Sec. IV as one battery, run once per session."""
    return validate_reproduction(
        baseline_config, iteration_scale=SCALE, seed=SEED,
        latencies=range(0, 801, 100))


@pytest.fixture(scope="session")
def section_iv_exploration(validation):
    """The Section IV experiment matrix, as the battery ran it."""
    return validation.battery.exploration


@pytest.fixture
def check(benchmark, validation, claim_id):
    """One claim's verdict from the battery, recorded as a benchmark."""
    verdict = benchmark.pedantic(
        validation.check, (claim_id,), rounds=1, iterations=1)
    benchmark.extra_info["evidence"] = verdict.evidence
    return verdict
