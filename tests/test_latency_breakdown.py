"""Per-hop latency breakdown tests."""

import pytest

from repro.core.latency_breakdown import (
    BREAKDOWN_PROBES,
    breakdown_plan,
    congestion_share,
)
from repro.core.metrics import run_kernel
from repro.gpu import GPU
from repro.mem.request import AccessKind, MemoryRequest
from repro.runner import Job, run_plan
from repro.sim.config import tiny_gpu
from repro.telemetry import SEGMENTS, LatencyBreakdown, RequestTracer
from repro.workloads.suite import PAPER_SUITE, get_benchmark
from repro.workloads.synthetic import SyntheticKernelSpec, build_kernel

KERNEL = build_kernel(SyntheticKernelSpec(
    name="bk", pattern="stream", iterations=8, compute_per_iter=2,
    loads_per_iter=2, mlp_limit=4))


def synthetic_request(stamps, l2_miss=False):
    r = MemoryRequest(rid=0, kind=AccessKind.LOAD, line=0, sm_id=0, warp_id=0)
    r.l2_miss = l2_miss
    r.timestamps.update(stamps)
    return r


class TestObserve:
    def test_segments_computed_from_timestamps(self):
        breakdown = LatencyBreakdown("x")
        breakdown.observe(synthetic_request({
            "l1_miss": 0, "l2_in": 10, "l2_probed": 30,
            "l2_out": 35, "l1_fill": 95,
        }))
        assert breakdown.mean("l1_to_l2") == 10
        assert breakdown.mean("l2_queue") == 20
        assert breakdown.mean("l2_hit_out") == 5
        assert breakdown.mean("response_network") == 60
        assert breakdown.total_l2_hit.mean == 95
        assert breakdown.total_l2_miss.count == 0

    def test_miss_request_classified_separately(self):
        breakdown = LatencyBreakdown("x")
        breakdown.observe(synthetic_request(
            {"l1_miss": 0, "l1_fill": 300}, l2_miss=True))
        assert breakdown.total_l2_miss.mean == 300
        assert breakdown.total_l2_hit.count == 0

    def test_missing_hops_are_skipped(self):
        breakdown = LatencyBreakdown("x")
        breakdown.observe(synthetic_request({"l1_miss": 0}))
        assert breakdown.mean("dram_service") == 0.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def breakdown(self):
        metrics = run_kernel(tiny_gpu(), KERNEL, probes=BREAKDOWN_PROBES)
        return metrics.extras["breakdown"]

    def test_totals_populated(self, breakdown):
        assert breakdown.total_l2_miss.count > 0

    def test_segment_sum_close_to_total(self, breakdown):
        """Miss-path segments roughly tile the total round trip."""
        path = (
            breakdown.mean("l1_to_l2")
            + breakdown.mean("l2_queue")
            + breakdown.mean("l2_to_dram")
            + breakdown.mean("dram_service")
            + breakdown.mean("dram_to_l2")
            + breakdown.mean("response_network")
        )
        total = breakdown.total_l2_miss.mean
        assert path == pytest.approx(total, rel=0.35)

    def test_table_renders(self, breakdown):
        table = breakdown.to_table()
        assert "dram_service" in table
        assert "TOTAL (L2 misses)" in table

    def test_congestion_share_in_unit_interval(self, breakdown):
        share = congestion_share(breakdown, tiny_gpu())
        assert 0.0 <= share < 1.0

    def test_by_benchmark_name(self):
        breakdown = run_plan(breakdown_plan(
            tiny_gpu(), "nn", iteration_scale=0.1))
        assert breakdown.benchmark == "nn"


class TestStreamedFromTracer:
    """The tracer's streamed breakdown is complete and holds nothing."""

    @pytest.mark.parametrize("name", PAPER_SUITE)
    def test_totals_count_every_l1_miss(self, name):
        # A breakdown that silently records nothing (or double counts)
        # breaks this identity with the L1's own miss-latency count.
        job = Job(tiny_gpu(), name, iteration_scale=0.1,
                  probes=BREAKDOWN_PROBES)
        metrics = job.execute()
        breakdown = metrics.extras["breakdown"]
        folded = breakdown.total_l2_hit.count + breakdown.total_l2_miss.count
        assert folded == metrics.l1_miss_count > 0

    @pytest.mark.parametrize("name", PAPER_SUITE)
    def test_limit_zero_holds_no_request_after_the_run(self, name):
        gpu = GPU(tiny_gpu(), get_benchmark(name, 0.1))
        tracer = RequestTracer.attach(gpu, stride=1, limit=0)
        gpu.run()
        breakdown = tracer.latency_breakdown()
        assert tracer.sampled == 0 and tracer.requests == []
        assert tracer.pending == 0
        assert tracer.created == tracer.overflowed > 0
        assert breakdown.total_l2_miss.count + breakdown.total_l2_hit.count


def test_segment_table_is_complete():
    assert set(SEGMENTS) == {
        "l1_to_l2", "l2_queue", "l2_to_dram", "dram_service",
        "dram_to_l2", "l2_hit_out", "response_network",
    }
