"""Validation-report tests.

The structural behaviour is unit-tested with synthetic checks, and each
judge of the claim table on hand-built reports; the full battery runs
once on the tiny config to verify it executes end to end (claim verdicts
at tiny scale are informational — the authoritative run is the
benchmark harness on the default config).
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.core.congestion import CongestionReport
from repro.core.explorer import ExplorationResult
from repro.core.latency_profile import LatencyPoint, LatencyProfile
from repro.core.metrics import QueueMetrics, run_kernel
from repro.core.validation import (
    CLAIMS,
    MEMORY_BOUND,
    Battery,
    Check,
    ValidationReport,
    validate_reproduction,
)
from repro.runner import BatchRunner
from repro.sim.config import tiny_gpu
from repro.workloads.suite import get_benchmark


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

    def test_report_rows_follow_the_claim_table(self, report):
        assert [c.name for c in report.checks] == list(CLAIMS)
        assert len(CLAIMS) == 19

    def test_every_check_has_evidence(self, report):
        assert all(c.evidence for c in report.checks)

    def test_fig1_structural_checks_hold_even_at_tiny_scale(self, report):
        by_name = {c.name: c for c in report.checks}
        assert by_name["fig1_curves_fall"].passed
        assert by_name["fig1_compute_flat"].passed


class TestOneBatch:
    def test_battery_is_one_batch_with_shared_baselines(self):
        # Fig. 1 (8 kernels x (baseline + 4 latencies)), Sec. III (8
        # baselines, 8 fully scaled) and Sec. IV (6 configs x 8 kernels):
        # 104 jobs, of which the 8 baseline runs appear three times.
        runner = RecordingRunner()
        report = validate_reproduction(
            tiny_gpu(), iteration_scale=0.05, runner=runner)
        assert len(runner.batches) == 1
        assert len(runner.batches[0]) == 104
        assert runner.last_stats.unique == 88
        assert runner.last_stats.executed == 88
        assert len(report.checks) == 19


@lru_cache(maxsize=1)
def _template():
    return run_kernel(tiny_gpu(), get_benchmark("leukocyte", 0.05))


def _metrics(ipc=1.0, miss_latency=300.0, l2=0.0, respq=0.0, dram=0.0):
    def queue(full):
        return QueueMetrics(full, 0.0, 0, 0)

    return dataclasses.replace(
        _template(), ipc=ipc, l1_avg_miss_latency=miss_latency,
        l2_accessq=queue(l2), l2_respq=queue(respq), dram_schedq=queue(dram))


def _profile(peak=3.0, intercept=300.0, miss_latency=300.0):
    """A Fig. 1 curve from ``peak`` at 0 cy, crossing 1.0x at
    ``intercept`` (None: never crosses)."""
    points = [LatencyPoint(0, peak, peak)]
    if intercept is None:
        points.append(LatencyPoint(800, 1.2, 1.2))
    else:
        points += [LatencyPoint(round(intercept), 1.0, 1.0),
                   LatencyPoint(1000, 0.5, 0.5)]
    return LatencyProfile(
        "k", _metrics(miss_latency=miss_latency), tuple(points))


def _figure(**overrides):
    """Memory-bound curves at a 3x peak and 300 cy intercept, but for
    ``overrides`` (kernel -> profile)."""
    return Battery(
        {name: overrides.get(name, _profile()) for name in MEMORY_BOUND},
        None, None, None)


def _congestion(*runs):
    return CongestionReport(
        {f"k{i}": _metrics(l2=l2, respq=respq, dram=dram)
         for i, (l2, respq, dram) in enumerate(runs)})


KERNELS = ("dwt2d", "sc", "ss", "lbm", "leukocyte")
#: Per-kernel speedups shaped like the paper's Section IV.
SPEEDUPS = {
    "l1": {"dwt2d": 0.95, "sc": 1.05, "ss": 1.05},
    "l2": {"dwt2d": 1.6, "sc": 1.6, "ss": 1.6, "lbm": 1.2},
    "dram": {"lbm": 1.5},
    "l1+l2": {"dwt2d": 1.7, "sc": 1.7, "ss": 1.7, "lbm": 1.3},
    "l2+dram": {"dwt2d": 1.7, "sc": 1.7, "ss": 1.7, "lbm": 1.9},
}


def _matrix(dram_full=None, **changes):
    """Sec. IV battery from :data:`SPEEDUPS` with ``changes`` merged in
    (label -> {kernel: speedup}); kernels absent run at 1.0x.
    ``dram_full`` maps (label, kernel) to a DRAM queue full fraction."""
    table = {label: {**SPEEDUPS.get(label, {}), **changes.get(label, {})}
             for label in ("baseline", *SPEEDUPS)}
    dram_full = dram_full or {}
    runs = {
        label: {name: _metrics(ipc=speedups.get(name, 1.0),
                               dram=dram_full.get((label, name), 0.0))
                for name in KERNELS}
        for label, speedups in table.items()
    }
    return Battery(None, None, None,
                   ExplorationResult(runs, tuple(runs), KERNELS))


def _judge(claim_id, battery):
    return CLAIMS[claim_id].judge(battery)


class TestJudges:
    """Each judge beyond the original nine, on hand-built reports."""

    def test_far_from_plateau(self):
        passed, evidence = _judge("fig1_far_from_plateau", _figure())
        assert passed and evidence.startswith("6/6 peaks above 2.0x")
        passed, evidence = _judge(
            "fig1_far_from_plateau", _figure(nn=_profile(peak=1.8)))
        assert not passed and "lowest nn 1.80x" in evidence

    def test_intercepts_beyond_dram(self):
        assert _judge("fig1_intercepts_beyond_dram",
                      _figure(cfd=_profile(intercept=150)))[0]
        passed, evidence = _judge(
            "fig1_intercepts_beyond_dram",
            _figure(cfd=_profile(intercept=150), lbm=_profile(intercept=None)))
        assert not passed and evidence == "4/6 intercepts above 220 cy"

    def test_intercept_estimates_latency(self):
        passed, evidence = _judge(
            "fig1_intercept_estimates_latency",
            _figure(sc=_profile(intercept=390, miss_latency=376)))
        assert passed and evidence == "sc intercept 390 cy vs 376 cy measured"
        assert not _judge(
            "fig1_intercept_estimates_latency",
            _figure(sc=_profile(intercept=390, miss_latency=200)))[0]
        assert not _judge(
            "fig1_intercept_estimates_latency",
            _figure(sc=_profile(intercept=None)))[0]

    def test_pressure_widespread(self):
        quiet, busy = (0.1, 0.1, 0.0), (0.3, 0.0, 0.0)
        via_response = (0.0, 0.3, 0.0)
        battery = Battery(
            None, _congestion(busy, busy, busy, via_response, *[quiet] * 4),
            None, None)
        assert _judge("sec3_pressure_widespread", battery) == (
            True, "4/8 kernels with an L2 access or response queue full > 20%")
        battery = Battery(
            None, _congestion(busy, busy, busy, *[quiet] * 5), None, None)
        assert not _judge("sec3_pressure_widespread", battery)[0]

    def test_scaled_relieves(self):
        base = _congestion((0.4, 0.0, 0.3), (0.4, 0.0, 0.3))
        relieved = _congestion((0.1, 0.0, 0.1), (0.1, 0.0, 0.1))
        assert _judge("sec3_scaled_relieves",
                      Battery(None, base, relieved, None)) == (
            True, "scaled L2 access queue full 10% vs 40%, DRAM sched 10% "
                  "vs 30%")
        dram_worse = _congestion((0.1, 0.0, 0.35), (0.1, 0.0, 0.35))
        assert not _judge("sec3_scaled_relieves",
                          Battery(None, base, dram_worse, None))[0]

    def test_magnitudes(self):
        assert _judge("sec4_magnitudes", _matrix()) == (
            True, "L2 +40%, DRAM +10%, L1 +1%")
        big_l1 = {name: 1.2 for name in KERNELS}
        assert not _judge("sec4_magnitudes", _matrix(l1=big_l1))[0]

    def test_level_winners(self):
        passed, evidence = _judge("sec4_level_winners", _matrix())
        assert passed and evidence.endswith(
            "DRAM: lbm 1.50x; leukocyte within 0.0%")
        assert not _judge(
            "sec4_level_winners", _matrix(l2={"leukocyte": 1.1}))[0]
        assert not _judge("sec4_level_winners", _matrix(dram={"lbm": 1.2}))[0]

    def test_l1l2_recovers(self):
        assert _judge("sec4_l1l2_recovers", _matrix()) == (
            True, "1/1 degraded recovered, L1+L2 +48%")
        assert not _judge(
            "sec4_l1l2_recovers", _matrix(**{"l1+l2": {"dwt2d": 0.9}}))[0]

    def test_combined_beat_isolated(self):
        assert _judge("sec4_combined_beat_isolated", _matrix())[0]
        weak = {name: 1.3 for name in KERNELS}
        passed, evidence = _judge(
            "sec4_combined_beat_isolated", _matrix(**{"l1+l2": weak}))
        assert not passed and evidence.endswith("vs best level +40%")

    def test_congestion_moves(self):
        moved = {("l2", "dwt2d"): 0.3, ("l2", "sc"): 0.3}
        assert _judge("sec4_congestion_moves", _matrix(moved))[0]
        moved[("baseline", "sc")] = 0.28
        passed, evidence = _judge("sec4_congestion_moves", _matrix(moved))
        assert not passed and evidence.startswith("1 kernels'")

