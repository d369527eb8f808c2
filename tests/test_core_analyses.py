"""Tests for the characterization layer: latency profile, congestion,
explorer, synergy, reports.

Runs use the tiny configuration and shortened kernels so the whole module
executes in seconds.
"""

import pytest

from repro.core.congestion import CongestionReport, measure_congestion
from repro.core.explorer import (
    SECTION_IV_CONFIGS,
    explore_design_space,
    sweep_parameter,
)
from repro.core.latency_profile import (
    LatencyPoint,
    LatencyProfile,
    latency_profile_plan,
    profile_latency_tolerance,
)
from repro.core.metrics import RunMetrics, run_kernel
from repro.core.report import render_congestion, render_figure1, render_section_iv
from repro.core.synergy import analyze_synergy
from repro.errors import ReproError
from repro.sim.config import tiny_gpu
from repro.workloads.synthetic import SyntheticKernelSpec, build_kernel

#: A memory-intense kernel that responds to both latency and bandwidth.
PROBE = build_kernel(SyntheticKernelSpec(
    name="probe", pattern="stream", iterations=8, compute_per_iter=2,
    loads_per_iter=2, mlp_limit=4))

BENCHES = ("nn", "leukocyte")


def probe_profile(latencies):
    """Figure 1 curve of the ad-hoc PROBE kernel: its runs made directly
    (a KernelProgram is not a suite job), folded by the experiment's plan."""
    plan = latency_profile_plan(PROBE.name, tiny_gpu(), latencies)
    return plan.fold([run_kernel(job.config, PROBE) for job in plan.jobs])


class TestLatencyProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        return probe_profile((0, 100, 300, 600))

    def test_points_cover_requested_latencies(self, profile):
        assert [p.latency for p in profile.points] == [0, 100, 300, 600]

    def test_curve_decreases(self, profile):
        ipcs = [p.ipc for p in profile.points]
        assert ipcs == sorted(ipcs, reverse=True)

    def test_normalization_against_baseline(self, profile):
        for p in profile.points:
            assert p.normalized_ipc == pytest.approx(
                p.ipc / profile.baseline_ipc)

    def test_intercept_between_bracketing_points(self, profile):
        intercept = profile.intercept_latency()
        assert intercept is not None
        below = max(p.latency for p in profile.points
                    if p.normalized_ipc >= 1.0)
        above = min(p.latency for p in profile.points
                    if p.normalized_ipc <= 1.0)
        assert below <= intercept <= above

    def test_intercept_approximates_measured_latency(self, profile):
        """The paper's methodology check: the 1.0x crossing estimates the
        baseline's average L1 miss latency."""
        intercept = profile.intercept_latency()
        measured = profile.baseline_avg_miss_latency
        assert abs(intercept - measured) / measured < 0.6

    def test_plateau_at_or_after_zero(self, profile):
        assert profile.plateau_latency() >= 0

    def test_benchmark_by_name(self):
        prof = profile_latency_tolerance(
            "nn", tiny_gpu(), latencies=(0, 200), iteration_scale=0.1)
        assert prof.benchmark == "nn"


class TestSyntheticProfileHelpers:
    def make(self, pairs, baseline_ipc=1.0):
        base = run_kernel(tiny_gpu().with_magic_memory(0), PROBE)
        points = tuple(
            LatencyPoint(latency=l, ipc=n * baseline_ipc, normalized_ipc=n)
            for l, n in pairs
        )
        return LatencyProfile(benchmark="x", baseline=base, points=points)

    def test_intercept_interpolation(self):
        prof = self.make([(0, 2.0), (100, 1.5), (200, 0.5), (300, 0.25)])
        assert prof.intercept_latency() == pytest.approx(150.0)

    def test_intercept_none_when_curve_stays_above(self):
        prof = self.make([(0, 3.0), (100, 2.0)])
        assert prof.intercept_latency() is None
        assert prof.congestion_excess() is None

    def test_intercept_at_first_point_when_below(self):
        prof = self.make([(0, 0.9), (100, 0.5)])
        assert prof.intercept_latency() == 0.0

    def test_plateau_tolerance(self):
        prof = self.make([(0, 2.0), (50, 1.98), (100, 1.5), (200, 0.6)])
        assert prof.plateau_latency(tolerance=0.05) == 50

    def test_congestion_excess_positive_under_congestion(self):
        prof = self.make([(0, 2.0), (400, 1.01), (800, 0.5)])
        assert prof.congestion_excess() > 0


class TestCongestion:
    @pytest.fixture(scope="class")
    def report(self):
        return measure_congestion(
            tiny_gpu(), benchmarks=BENCHES, iteration_scale=0.15)

    def test_report_has_all_benchmarks(self, report):
        assert set(report.runs) == set(BENCHES)

    def test_fractions_in_unit_interval(self, report):
        for stat in (
            report.avg_l2_access_queue_full,
            report.avg_dram_queue_full,
            report.avg_l1_miss_queue_full,
            report.avg_l2_miss_queue_full,
            report.avg_l2_response_queue_full,
        ):
            assert 0.0 <= stat <= 1.0

    def test_table_renders(self, report):
        table = report.to_table()
        for name in BENCHES:
            assert name in table
        assert "average" in table

    def test_render_congestion_mentions_paper_values(self, report):
        text = render_congestion(report)
        assert "46%" in text and "39%" in text


class TestExplorer:
    @pytest.fixture(scope="class")
    def result(self):
        return explore_design_space(
            tiny_gpu(),
            benchmarks=BENCHES,
            configs={"baseline": (), "l2": ("l2",), "dram": ("dram",),
                     "l2+dram": ("l2", "dram")},
            iteration_scale=0.15,
        )

    def test_all_cells_run(self, result):
        assert set(result.runs) == {"baseline", "l2", "dram", "l2+dram"}
        for label in result.runs:
            assert set(result.runs[label]) == set(BENCHES)

    def test_baseline_speedup_is_one(self, result):
        for bench in BENCHES:
            assert result.speedup("baseline", bench) == pytest.approx(1.0)

    def test_average_speedup_means(self, result):
        arith = result.average_speedup("l2")
        geo = result.average_speedup("l2", mean="geometric")
        assert arith >= geo > 0

    def test_average_gain_consistent(self, result):
        assert result.average_gain("l2") == pytest.approx(
            result.average_speedup("l2") - 1.0)

    def test_table_renders(self, result):
        table = result.to_table()
        assert "l2+dram" in table and "average" in table

    def test_render_section_iv(self, result):
        text = render_section_iv(result)
        assert "paper avg gain" in text

    def test_baseline_added_if_missing(self):
        result = explore_design_space(
            tiny_gpu(), benchmarks=("leukocyte",),
            configs={"l1": ("l1",)}, iteration_scale=0.1)
        assert "baseline" in result.runs


class TestSynergy:
    def test_synergy_analysis(self):
        result = explore_design_space(
            tiny_gpu(), benchmarks=BENCHES,
            configs=SECTION_IV_CONFIGS, iteration_scale=0.15)
        analysis = analyze_synergy(result)
        labels = {p.combined_label for p in analysis.pairs}
        assert labels == {"l1+l2", "l2+dram"}
        for pair in analysis.pairs:
            assert pair.synergy == pytest.approx(
                pair.combined_gain - pair.sum_of_parts)
        assert analysis.to_table()

    def test_missing_configs_raise(self):
        result = explore_design_space(
            tiny_gpu(), benchmarks=("leukocyte",),
            configs={"baseline": ()}, iteration_scale=0.1)
        with pytest.raises(ReproError):
            analyze_synergy(result)


class TestParameterSweep:
    def test_sweep_parameter(self):
        sweep = sweep_parameter(
            tiny_gpu(), "l2_access_queue", values=(4, 16),
            benchmark="nn", iteration_scale=0.1)
        assert set(sweep.points) == {4, 16}
        speedups = sweep.speedups()
        assert speedups[4] == pytest.approx(1.0)
        assert all(isinstance(m, RunMetrics) for m in sweep.points.values())


class TestFigureRendering:
    def test_render_figure1(self):
        profiles = [
            profile_latency_tolerance(
                name, tiny_gpu(), latencies=(0, 200, 400),
                iteration_scale=0.1)
            for name in BENCHES
        ]
        text = render_figure1(profiles)
        assert "Fig. 1" in text
        for name in BENCHES:
            assert name in text
