"""Bottleneck diagnosis tests: the verdict is a view of the blame profile."""

import pytest

import types

from repro.core.profile import (
    counterfactual_agrees,
    diagnose,
    diagnosis_plan,
    render_diagnoses,
)
from repro.runner import run_plan
from repro.sim.config import tiny_gpu


def document(classes=None, **blame):
    """A profile document with calm defaults, selectively overridden."""
    classes = classes or {
        "issue": 200, "issue_starved": 500, "no_ready_warp": 250,
        "drained": 50,
    }
    stages = {"dram": 0, "l2": 0, "icnt": 0, "l1": 0, "mem_latency": 0}
    stages.update(blame)
    return {
        "benchmark": "x",
        "classes": classes,
        "sm_cycles": sum(classes.values()),
        "blame": stages,
    }


class TestClassify:
    def test_compute_bound(self):
        d = diagnose(document(
            {"issue": 900, "issue_starved": 0, "no_ready_warp": 100,
             "drained": 0},
            dram=400))
        assert d.bottleneck == "compute"

    def test_dram_bound(self):
        assert diagnose(document(dram=800, l2=100)).bottleneck == "dram"

    def test_cache_hierarchy_bound(self):
        # Crossbar congestion is L1<->L2 bandwidth: it counts towards l2.
        d = diagnose(document(dram=500, l2=300, icnt=300))
        assert d.bottleneck == "l2"
        assert d.blame["l2"] == 600

    def test_latency_bound(self):
        waiting = {"issue": 200, "issue_starved": 0, "no_ready_warp": 700,
                   "drained": 100}
        assert diagnose(document(waiting, l1=13)).bottleneck == "latency"
        # The same waiting with more congestion blame than waiting is not
        # latency-bound: the blamed level wins.
        assert diagnose(document(waiting, dram=800)).bottleneck == "dram"
        # Stalls with nothing congested downstream are raw latency.
        assert diagnose(document(mem_latency=600, l2=100)).bottleneck == (
            "latency")

    def test_dram_wins_tie_against_weaker_cache_pressure(self):
        assert diagnose(document(dram=700, l2=500)).bottleneck == "dram"

    def test_evidence_carried(self):
        d = diagnose(document(dram=300, icnt=100, mem_latency=50))
        assert d.benchmark == "x"
        assert d.dominant == "issue_starved"
        assert d.dominant_share == pytest.approx(0.5)
        assert d.blame == {"l1": 0, "l2": 100, "dram": 300, "latency": 50}
        assert "issue_starved 50%" in render_diagnoses([d])


class TestCounterfactual:
    @staticmethod
    def result(**speedups):
        return types.SimpleNamespace(
            speedup=lambda level, _benchmark: speedups[level])

    def test_level_verdict_must_gain_most(self):
        result = self.result(l1=0.99, l2=1.37, dram=1.04)
        assert counterfactual_agrees(diagnose(document(l2=9)), result)
        assert not counterfactual_agrees(diagnose(document(dram=9)), result)

    def test_compute_and_latency_need_no_level_worth_scaling(self):
        latency = diagnose(document(mem_latency=9))
        assert counterfactual_agrees(
            latency, self.result(l1=1.0, l2=1.06, dram=1.15))
        assert not counterfactual_agrees(
            latency, self.result(l1=1.0, l2=1.06, dram=1.16))


class TestSuiteDiagnosis:
    def test_diagnose_runs_and_renders(self):
        diagnoses = run_plan(diagnosis_plan(
            tiny_gpu(), benchmarks=("leukocyte", "nn"), iteration_scale=0.15))
        assert len(diagnoses) == 2
        text = render_diagnoses(diagnoses)
        assert "leukocyte" in text and "nn" in text

    def test_compute_bound_benchmark_classified_compute(self):
        (d,) = run_plan(diagnosis_plan(
            tiny_gpu(), benchmarks=("leukocyte",), iteration_scale=0.2))
        assert d.bottleneck == "compute"
