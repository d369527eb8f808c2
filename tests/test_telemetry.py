"""Telemetry acceptance tests: windows, traces, determinism.

The telemetry subsystem promises three things the rest of the repo leans
on:

* **reconciliation** — windowed series are exact decompositions of the
  end-of-run aggregates (summing window deltas recovers the cumulative
  queue counters and instruction totals);
* **valid traces** — the Chrome trace is schema-valid JSON whose spans
  are non-negative and cover every hop each sampled request recorded;
* **determinism** — identical seeds give byte-identical traces and
  window series, and attaching instrumentation never perturbs the
  simulated machine.
"""

import json
import types

import pytest

from repro.core.metrics import ProbeSpec, run_kernel
from repro.errors import UsageError
from repro.gpu import GPU
from repro.sim.config import tiny_gpu
from repro.telemetry import RequestTracer, TimeSeriesProbe, hop_track
from repro.utils.ascii_plot import resample, sparkline
from repro.workloads.suite import get_benchmark

SCALE = 0.2


def _run_probed(name="nn", window=100, **kwargs):
    gpu = GPU(tiny_gpu(), get_benchmark(name, SCALE))
    probe = TimeSeriesProbe.attach(gpu, window=window, **kwargs)
    gpu.run(max_cycles=500_000)
    return gpu, probe


class TestWindowReconciliation:
    def test_windows_partition_the_run(self):
        gpu, probe = _run_probed()
        windows = probe.windows
        assert len(windows) > 1
        assert windows[0].start == 0
        assert windows[-1].end == gpu.cycles
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start == prev.end
            assert cur.index == prev.index + 1

    def test_queue_cycles_reconcile_exactly(self):
        """Summed window deltas == end-of-run cumulative queue counters."""
        gpu, probe = _run_probed()
        families = {
            "l1_missq": [sm.l1.miss_queue for sm in gpu.sms],
            "l2_accessq": [l2.access_queue for l2 in gpu.l2_slices],
            "l2_missq": [l2.miss_queue for l2 in gpu.l2_slices],
            "l2_respq": [l2.response_queue for l2 in gpu.l2_slices],
            "dram_schedq": [d.sched_queue for d in gpu.dram_channels],
            "dram_returnq": [d.return_queue for d in gpu.dram_channels],
        }
        assert set(families) <= set(probe.queue_families)
        for family, queues in families.items():
            full, busy = probe.total_queue_cycles(family)
            assert full == sum(q.full_cycles() for q in queues), family
            assert busy == sum(q.busy_cycles() for q in queues), family

    def test_push_and_rejection_deltas_reconcile(self):
        gpu, probe = _run_probed()
        pushes = sum(
            w.queue_pushes["l2_accessq"] for w in probe.windows
        )
        assert pushes == sum(l2.access_queue.pushes for l2 in gpu.l2_slices)

    def test_ipc_windows_recover_instruction_total(self):
        gpu, probe = _run_probed()
        recovered = sum(w.ipc * w.length for w in probe.windows)
        assert recovered == pytest.approx(gpu.instructions)

    def test_run_kernel_timeline_matches_aggregate_metrics(self):
        """The windowed L2 congestion reconciles with Section III output."""
        metrics = run_kernel(
            tiny_gpu(), get_benchmark("nn", SCALE),
            probes=ProbeSpec(timeline_window=100),
        )
        timeline = metrics.extras["timeline"]
        windows = timeline["windows"]
        assert windows, "timeline captured no windows"
        full = sum(w["queue_full_cycles"]["l2_accessq"] for w in windows)
        busy = sum(w["queue_busy_cycles"]["l2_accessq"] for w in windows)
        pooled = full / busy if busy else 0.0
        # full_fraction is a mean over instances; the pooled ratio agrees
        # within tolerance (exactly, on tiny's single partition).
        assert pooled == pytest.approx(
            metrics.l2_accessq.full_fraction, abs=0.05
        )
        ipc = sum(w["ipc"] * (w["end"] - w["start"]) for w in windows)
        assert ipc / metrics.cycles == pytest.approx(metrics.ipc)

    def test_bus_utilization_windows_average_to_aggregate(self):
        metrics = run_kernel(
            tiny_gpu(), get_benchmark("nn", SCALE),
            probes=ProbeSpec(timeline_window=100),
        )
        windows = metrics.extras["timeline"]["windows"]
        busy = sum(
            w["dram_bus_utilization"] * (w["end"] - w["start"])
            for w in windows
        )
        assert busy / metrics.cycles == pytest.approx(
            metrics.dram_bus_utilization, abs=1e-9
        )


class TestRingBuffer:
    def test_oldest_windows_dropped_beyond_cap(self):
        gpu, probe = _run_probed(window=50, max_windows=3)
        assert len(probe.windows) == 3
        assert probe.dropped > 0
        assert probe.windows[-1].end == gpu.cycles
        # Retained windows are the most recent, still contiguous.
        indices = [w.index for w in probe.windows]
        assert indices == list(
            range(probe.dropped, probe.dropped + 3)
        )
        assert probe.summary()["dropped"] == probe.dropped

    def test_parameter_validation(self):
        gpu = GPU(tiny_gpu(), get_benchmark("nn", SCALE))
        with pytest.raises(UsageError):
            TimeSeriesProbe(gpu.sim, window=0)
        with pytest.raises(UsageError):
            TimeSeriesProbe(gpu.sim, max_windows=0)

    def test_series_accessor(self):
        _gpu, probe = _run_probed()
        points = probe.series("ipc")
        assert len(points) == len(probe.windows)
        per_family = probe.series("queue_full_fraction", "l2_accessq")
        assert len(per_family) == len(points)
        with pytest.raises(UsageError):
            probe.series("queue_full_fraction")  # family required
        with pytest.raises(UsageError):
            probe.series("no_such_series")


def _run_traced(name="nn", stride=1, **kwargs):
    gpu = GPU(tiny_gpu(), get_benchmark(name, SCALE))
    tracer = RequestTracer.attach(gpu, stride=stride, **kwargs)
    gpu.run(max_cycles=500_000)
    return gpu, tracer


class TestChromeTrace:
    def test_schema_valid_json(self):
        _gpu, tracer = _run_traced()
        trace = json.loads(tracer.to_json())
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        for event in trace["traceEvents"]:
            assert event["ph"] in {"X", "M"}
            assert event["pid"] == 0
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert "->" in event["name"] or event["dur"] == 0

    def test_spans_cover_every_recorded_hop(self):
        _gpu, tracer = _run_traced()
        trace = tracer.to_chrome_trace()
        spans_by_rid = {}
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            hops = spans_by_rid.setdefault(event["args"]["rid"], set())
            hops.add(event["args"]["begin_hop"])
            hops.add(event["args"]["end_hop"])
        assert spans_by_rid
        for request in tracer.requests:
            assert set(request.timestamps) == spans_by_rid[request.rid]

    def test_spans_are_monotone_per_request(self):
        _gpu, tracer = _run_traced()
        for request in tracer.requests:
            stamps = [cycle for _hop, cycle in request.hops()]
            assert stamps == sorted(stamps)

    def test_every_track_named(self):
        _gpu, tracer = _run_traced()
        trace = tracer.to_chrome_trace()
        named = {
            e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {
            e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert used <= named

    def test_stride_sampling(self):
        _gpu, tracer = _run_traced(stride=4)
        assert tracer.created > 4
        assert tracer.sampled == (tracer.created + 3) // 4
        meta = tracer.to_chrome_trace()["otherData"]
        assert meta["stride"] == 4
        assert meta["requests_created"] == tracer.created

    def test_limit_caps_retention(self):
        _gpu, tracer = _run_traced(stride=1, limit=2)
        assert tracer.sampled == 2
        assert tracer.overflowed == tracer.created - 2

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            RequestTracer(stride=0)
        with pytest.raises(UsageError):
            RequestTracer(limit=-1)

    def test_hop_summary_digest(self):
        _gpu, tracer = _run_traced()
        summary = tracer.hop_summary()
        assert summary
        for row in summary:
            assert "->" in row["hop"]
            assert row["count"] > 0
            assert 0 <= row["mean"]
            assert 0 <= row["p50"]


class TestHopTrack:
    def test_prefix_mapping(self):
        request = types.SimpleNamespace(sm_id=3, line=0)
        assert hop_track("icnt_req_in", request) == "icnt.request"
        assert hop_track("icnt_resp_out", request) == "icnt.response"
        assert hop_track("l1_miss", request) == "sm3.l1"
        assert hop_track("l2_probed", request) == "l2"
        assert hop_track("dram_act", request) == "dram"
        assert hop_track("mystery", request) == "other"

    def test_unattributed_l1(self):
        request = types.SimpleNamespace(sm_id=-1, line=0)
        assert hop_track("l1_access", request) == "l1"

    def test_partition_suffix_with_mapper(self):
        gpu = GPU(tiny_gpu(), get_benchmark("nn", SCALE))
        request = types.SimpleNamespace(sm_id=0, line=7)
        partition = gpu.mapper.partition(7)
        assert hop_track("l2_in", request, gpu.mapper) == f"l2_p{partition}"
        assert (
            hop_track("dram_in", request, gpu.mapper) == f"dram_p{partition}"
        )


class TestDeterminismAndTransparency:
    def test_trace_deterministic_across_identical_seeds(self):
        _gpu, first = _run_traced(stride=2)
        _gpu, second = _run_traced(stride=2)
        assert first.to_json() == second.to_json()

    def test_timeline_deterministic_across_identical_seeds(self):
        _gpu, first = _run_probed()
        _gpu, second = _run_probed()
        assert first.summary() == second.summary()

    def test_instrumentation_is_observationally_transparent(self):
        plain = GPU(tiny_gpu(), get_benchmark("nn", SCALE))
        plain.run(max_cycles=500_000)
        probed = GPU(tiny_gpu(), get_benchmark("nn", SCALE))
        TimeSeriesProbe.attach(probed, window=100)
        RequestTracer.attach(probed, stride=1)
        probed.run(max_cycles=500_000)
        assert probed.cycles == plain.cycles
        assert probed.instructions == plain.instructions


class TestSparklines:
    def test_resample_bucket_averages(self):
        assert resample([1.0, 3.0, 5.0, 7.0], 2) == [2.0, 6.0]
        assert resample([1.0, 2.0], 8) == [1.0, 2.0]
        with pytest.raises(UsageError):
            resample([1.0], 0)

    def test_sparkline_scales_min_to_max(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([0.0, 0.0]) == "  "
        assert sparkline([2.0, 2.0]) != "  "  # non-zero flat stays visible
        with pytest.raises(UsageError):
            sparkline([])

    def test_sparkline_width_cap(self):
        assert len(sparkline(list(range(100)), width=10)) == 10
