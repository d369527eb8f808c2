"""Cycle accounting & blame attribution acceptance tests.

The attribution subsystem makes three promises the profiling story rests
on:

* **conservation** — the four accounting classes (issue / issue_starved /
  no_ready_warp / drained) partition each SM's cycles *exactly*, on every
  benchmark, under both warp schedulers, with and without magic memory,
  and byte-identically under fast-forward;
* **zero perturbation** — attaching the probe (or requesting attribution
  through ``run_kernel``) never changes the simulated machine: metrics
  modulo ``extras`` are byte-identical with it on or off;
* **useful blame** — on a memory-intensive benchmark at the paper's
  small config, the majority of memory-pipeline stall cycles land on
  downstream congestion (l2/dram/icnt), echoing the Section III story,
  while magic memory (no L2/DRAM components at all) degrades cleanly to
  ``mem_latency``.
"""

import dataclasses
import json

import pytest

from repro.core.metrics import STALL_CAUSE_KEYS, ProbeSpec, run_kernel
from repro.core.profile import config_for_label, profile_diff, profile_plan
from repro.runner import run_plan
from repro.core.report import render_profile, render_profile_diff
from repro.errors import UsageError
from repro.gpu import GPU
from repro.sim.config import small_gpu, tiny_gpu
from repro.telemetry import BLAME_STAGES, DEFAULT_WINDOW, WindowSampler, blame
from repro.workloads.suite import BENCHMARKS, get_benchmark

SCALE = 0.2


def _gto(config):
    return dataclasses.replace(
        config, core=dataclasses.replace(config.core, scheduler="gto"))


def _run(config, name, fast_forward=True, **probes):
    return run_kernel(
        config, get_benchmark(name, SCALE), fast_forward=fast_forward,
        probes=ProbeSpec(attribution_window=DEFAULT_WINDOW, **probes))


def _assert_conserved(metrics):
    attribution = metrics.extras["attribution"]
    assert attribution["conserved"] is True
    classes = attribution["classes"]
    assert set(classes) == {
        "issue", "issue_starved", "no_ready_warp", "drained"}
    assert all(count >= 0 for count in classes.values())
    assert sum(classes.values()) == attribution["sm_cycles"]
    # The RunMetrics mirror agrees with the probe.
    assert metrics.sm_cycles == attribution["sm_cycles"]
    assert metrics.issue_cycles == classes["issue"]
    assert metrics.issue_starved_cycles == classes["issue_starved"]
    assert metrics.no_ready_warp_cycles == classes["no_ready_warp"]
    assert metrics.drained_cycles == classes["drained"]


class TestConservation:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("scheduler", ("lrr", "gto"))
    def test_classes_partition_cycles(self, name, scheduler):
        config = tiny_gpu()
        if scheduler == "gto":
            config = _gto(config)
        _assert_conserved(_run(config, name))

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("scheduler", ("lrr", "gto"))
    def test_classes_partition_cycles_magic_memory(self, name, scheduler):
        config = tiny_gpu().with_magic_memory(200)
        if scheduler == "gto":
            config = _gto(config)
        _assert_conserved(_run(config, name))

    def test_conserved_under_fast_forward_byte_identically(self):
        fast = _run(tiny_gpu(), "leukocyte")
        naive = _run(tiny_gpu(), "leukocyte", fast_forward=False)
        _assert_conserved(fast)
        assert fast == naive

    def test_sanitizer_accepts_the_accounting(self):
        # The sanitizer's cycle_accounting_violations pass runs on the
        # same machine; a clean run proves the invariant epoch by epoch.
        metrics = _run(tiny_gpu(), "sc", sanitize_interval=1)
        _assert_conserved(metrics)
        assert metrics.extras["sanitizer"]["checks_run"] > 0


class TestZeroPerturbation:
    @pytest.mark.parametrize("name", ("sc", "lbm", "leukocyte"))
    def test_metrics_byte_identical_modulo_extras(self, name):
        plain = run_kernel(tiny_gpu(), get_benchmark(name, SCALE))
        probed = _run(tiny_gpu(), name)
        assert "attribution" in probed.extras
        assert "attribution" not in plain.extras
        assert dataclasses.replace(probed, extras={}) == dataclasses.replace(
            plain, extras={})

    def test_disabled_by_default(self):
        metrics = run_kernel(tiny_gpu(), get_benchmark("nn", SCALE))
        assert "attribution" not in metrics.extras
        # ... but the accounting counters themselves are always on (they
        # are plain integers bumped in paths the SM takes anyway).
        assert metrics.sm_cycles > 0


class TestProbe:
    def _probed(self, name="nn", config=None, **kwargs):
        gpu = GPU(config or tiny_gpu(), get_benchmark(name, SCALE))
        probe = WindowSampler.attach(gpu, **kwargs)
        gpu.run(max_cycles=500_000)
        return gpu, probe

    def test_windows_partition_the_run(self):
        gpu, probe = self._probed(window=100)
        windows = probe.windows
        assert len(windows) > 1
        assert windows[0].start == 0
        assert windows[-1].end == gpu.cycles
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start == prev.end
            assert cur.index == prev.index + 1

    def test_window_deltas_sum_to_totals(self):
        _gpu, probe = self._probed(window=100)
        view = probe.attribution()
        windows = view["windows"]
        assert sum(w["sm_cycles"] for w in windows) == view["sm_cycles"]
        for name, total in view["classes"].items():
            assert sum(w["classes"].get(name, 0) for w in windows) == total
        for cause, total in view["stalls"].items():
            assert sum(w["stalls"].get(cause, 0) for w in windows) == total

    def test_window_blame_partitions_window_stalls(self):
        _gpu, probe = self._probed(window=100)
        for w in probe.attribution()["windows"]:
            assert sum(w["blame"].values()) == sum(
                max(0, s) for s in w["stalls"].values())
            assert tuple(w["blame"]) == BLAME_STAGES
            assert all(0.0 <= v <= 1.0 for v in w["signals"].values())

    def test_blame_totals_exact_despite_dropped_windows(self):
        _gpu, exact = self._probed(name="sc", window=50, max_windows=1024)
        _gpu, ringed = self._probed(name="sc", window=50, max_windows=2)
        assert ringed.dropped > 0
        assert len(ringed.windows) == 2
        exact, ringed = exact.attribution(), ringed.attribution()
        assert ringed["blame"] == exact["blame"]
        assert ringed["classes"] == exact["classes"]
        assert blame(exact["windows"]) == exact["blame"]

    def test_magic_memory_blames_latency(self):
        _gpu, probe = self._probed(
            name="sc", config=tiny_gpu().with_magic_memory(200))
        totals = probe.attribution()["blame"]
        assert sum(totals.values()) > 0
        assert sum(totals.values()) == totals["mem_latency"]

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            WindowSampler(None, window=0)
        with pytest.raises(UsageError):
            WindowSampler(None, max_windows=0)
        # The threshold is an argument of blame(), not of the sampler.
        with pytest.raises(TypeError):
            WindowSampler(None, blame_threshold=0.25)

    def test_determinism(self):
        _gpu, a = self._probed(name="lbm", window=100)
        _gpu, b = self._probed(name="lbm", window=100)
        assert a.attribution() == b.attribution()


class TestStallCauseSurfacing:
    def test_stall_dict_zero_filled_with_stable_keys(self):
        metrics = run_kernel(tiny_gpu(), get_benchmark("leukocyte", SCALE))
        assert tuple(metrics.mem_stall_cycles_by_cause) == STALL_CAUSE_KEYS
        assert all(
            cycles >= 0
            for cycles in metrics.mem_stall_cycles_by_cause.values())

    def test_stalls_sum_to_pipeline_stall_cycles(self):
        metrics = run_kernel(tiny_gpu(), get_benchmark("sc", SCALE))
        assert (
            sum(metrics.mem_stall_cycles_by_cause.values())
            == metrics.mem_pipeline_stall_cycles)

    def test_export_columns_are_stable(self):
        from repro.core.export import metrics_to_dict, runs_to_text

        metrics = run_kernel(tiny_gpu(), get_benchmark("nn", SCALE))
        flat = metrics_to_dict(metrics)
        for cause in STALL_CAUSE_KEYS:
            column = f"mem_stall_{cause[len('stall_'):]}_cycles"
            assert column in flat
        header = runs_to_text([metrics], "csv").splitlines()[0]
        assert "mem_stall_mshr_full_cycles" in header
        assert "mem_stall_missq_full_cycles" in header


class TestProfileDocuments:
    def _profile(self, label="baseline", name="sc"):
        return run_plan(profile_plan(
            config_for_label(tiny_gpu(), label), name,
            config_label=label, iteration_scale=SCALE))

    def test_profile_is_json_ready_and_conserved(self):
        profile = self._profile()
        round_tripped = json.loads(json.dumps(profile))
        assert round_tripped == profile
        assert profile["conserved"] is True
        assert sum(profile["classes"].values()) == profile["sm_cycles"]
        assert set(profile["blame"]) == set(BLAME_STAGES)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_stored_windows_can_be_blamed_again(self, name):
        """Blame is a pure function of a document's stored windows."""
        plan = profile_plan(tiny_gpu(), name, iteration_scale=0.1,
                            window=100)
        [job] = plan.jobs
        document = json.loads(json.dumps(plan.fold([job.execute()])))
        assert document["dropped"] == 0
        assert blame(document["windows"]) == document["blame"]
        # Whatever the threshold, blame partitions the same stall cycles.
        strict = blame(document["windows"], threshold=1.0)
        assert sum(strict.values()) == sum(document["blame"].values())

    def test_document_counts_the_windows_it_dropped(self):
        """A run longer than the ring keeps exact totals, and its
        document says how many windows its stored ones leave out."""
        document = run_plan(profile_plan(
            tiny_gpu(), "sc", iteration_scale=0.2, window=1))
        assert len(document["windows"]) == document["max_windows"]
        assert document["dropped"] > 0
        assert document["dropped"] + len(document["windows"]) == (
            document["cycles"])
        assert sum(blame(document["windows"]).values()) < sum(
            document["blame"].values())
        assert f"{document['dropped']} oldest windows dropped" in (
            render_profile(document))

    def test_unknown_label_rejected(self):
        with pytest.raises(UsageError):
            config_for_label(tiny_gpu(), "turbo")

    def test_diff_requires_matching_run(self):
        a = self._profile()
        b = dict(a, seed=2)
        with pytest.raises(UsageError):
            profile_diff(a, b)

    def test_diff_explains_cycles_saved(self):
        a = self._profile("baseline")
        b = self._profile("l2")
        diff = profile_diff(a, b)
        assert diff["cycles_saved"] == a["cycles"] - b["cycles"]
        assert sum(diff["classes_reclaimed"].values()) == (
            diff["sm_cycles_saved"])
        assert diff["a"]["config"] == "baseline"
        assert diff["b"]["config"] == "l2"

    def test_renderers_accept_the_documents(self):
        a = self._profile("baseline")
        text = render_profile(a)
        assert "Cycle classes" in text
        assert "conserved=true" in text
        diff_text = render_profile_diff(profile_diff(a, self._profile("l2")))
        assert "speedup" in diff_text
        assert "reclaimed" in diff_text

    def test_compute_bound_profile_renders(self):
        profile = run_plan(profile_plan(
            tiny_gpu().with_magic_memory(0), "leukocyte",
            iteration_scale=SCALE))
        text = render_profile(profile)
        assert "Top-down cycle accounting" in text


@pytest.mark.slow
class TestPaperStory:
    def test_small_config_blames_downstream_congestion(self):
        """Acceptance: a memory-intensive benchmark at the paper's small
        config attributes the majority of its stall cycles to l2/dram."""
        profile = run_plan(profile_plan(
            small_gpu(), "sc", iteration_scale=SCALE))
        stall_total = sum(profile["stalls"].values())
        congested = sum(
            profile["blame"][stage] for stage in ("dram", "l2", "icnt"))
        assert stall_total > 0
        assert congested / stall_total > 0.5
