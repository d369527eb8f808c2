"""Validation-report tests.

The structural behaviour is unit-tested with synthetic checks; the full
battery runs once on the tiny config to verify it executes end to end
(claim verdicts at tiny scale are informational — the authoritative run
is the benchmark harness on the default config).
"""

import pytest

from repro.core.validation import (
    Check,
    ValidationReport,
    validate_reproduction,
)
from repro.runner import BatchRunner
from repro.sim.config import tiny_gpu


class RecordingRunner(BatchRunner):
    """Serial runner that keeps every batch it is handed."""

    def __init__(self):
        super().__init__(jobs=1, cache=None)
        self.batches = []

    def run(self, jobs):
        self.batches.append(list(jobs))
        return super().run(jobs)


class TestReportStructure:
    def test_all_pass(self):
        report = ValidationReport(checks=(Check("x", True, "e"),))
        assert report.passed
        assert report.failures == []
        assert "REPRODUCED" in report.to_table()

    def test_failure_detected(self):
        report = ValidationReport(
            checks=(Check("x", True, "e"), Check("y", False, "bad")))
        assert not report.passed
        assert [c.name for c in report.failures] == ["y"]
        assert "NOT REPRODUCED" in report.to_table()

    def test_table_lists_every_check(self):
        report = ValidationReport(
            checks=(Check("alpha", True, "1"), Check("beta", False, "2")))
        table = report.to_table()
        assert "alpha" in table and "beta" in table
        assert "PASS" in table and "FAIL" in table


class TestFullBattery:
    @pytest.fixture(scope="class")
    def report(self):
        return validate_reproduction(
            tiny_gpu(), iteration_scale=0.15, latencies=(0, 300, 800))

    def test_all_nine_checks_present(self, report):
        assert [c.name for c in report.checks] == [
            "fig1_curves_fall",
            "fig1_compute_flat",
            "fig1_intercepts_high",
            "sec3_l2_congested",
            "sec3_dram_congested",
            "sec4_l2_dominates",
            "sec4_superadditive",
            "sec4_l1_backfires",
            "sec4_cache_beats_dram",
        ]

    def test_every_check_has_evidence(self, report):
        assert all(c.evidence for c in report.checks)

    def test_fig1_structural_checks_hold_even_at_tiny_scale(self, report):
        by_name = {c.name: c for c in report.checks}
        assert by_name["fig1_curves_fall"].passed
        assert by_name["fig1_compute_flat"].passed


class TestOneBatch:
    def test_battery_is_one_batch_with_shared_baselines(self):
        # Fig. 1 (8 kernels x (baseline + 4 latencies)), Sec. III (8
        # baselines) and Sec. IV (6 configs x 8 kernels): 96 jobs, of
        # which the 8 baseline runs appear three times.
        runner = RecordingRunner()
        report = validate_reproduction(
            tiny_gpu(), iteration_scale=0.05, runner=runner)
        assert len(runner.batches) == 1
        assert len(runner.batches[0]) == 96
        assert runner.last_stats.unique == 80
        assert runner.last_stats.executed == 80
        assert len(report.checks) == 9

