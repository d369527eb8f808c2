"""Batch runner tests: jobs, cache, pool determinism, retry, CLI wiring,
and the opt-in observability layer (JSONL event log, progress line,
cache hit-rate statistics)."""

import dataclasses
import errno
import hashlib
import io
import json
import os
import pickle

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.core.explorer import SECTION_IV_CONFIGS
from repro.core.metrics import ProbeSpec, RunMetrics
from repro.core.profile import config_for_label
from repro.cli import main
from repro.errors import ConfigError, RunnerError, UsageError
from repro.runner import (
    BatchRunner,
    EventLog,
    Job,
    ProgressLine,
    ResultCache,
    code_version,
)
from repro.runner.cache import CACHE_FORMAT
from repro.runner.pool import FAULT_ENV
from repro.sim.config import config_from_dict, small_gpu, tiny_gpu

#: One cheap job everybody reuses (tiny config, heavily scaled down).
SCALE = 0.05


def _job(**overrides):
    defaults = dict(seed=1, iteration_scale=SCALE)
    defaults.update(overrides)
    return Job(tiny_gpu(), "nn", **defaults)


def _reference_key(job):
    """The job-key formula without any memo: asdict on every call."""
    payload = json.dumps(
        {
            "config": dataclasses.asdict(job.config),
            "kernel": job.kernel_name,
            "seed": job.seed,
            "iteration_scale": job.iteration_scale,
            "max_cycles": job.max_cycles,
            "code": code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestJob:
    def test_key_is_stable(self):
        assert _job().key() == _job().key()

    def test_key_changes_with_config(self):
        base = tiny_gpu()
        scaled = dataclasses.replace(
            base, l2=dataclasses.replace(base.l2, access_queue_depth=99))
        assert Job(base, "nn").key() != Job(scaled, "nn").key()

    def test_key_changes_with_run_parameters(self):
        assert _job().key() != _job(seed=2).key()
        assert _job().key() != _job(iteration_scale=0.1).key()
        assert _job().key() != _job(max_cycles=1234).key()
        assert _job().key() != Job(tiny_gpu(), "lbm",
                                   iteration_scale=SCALE).key()

    def test_key_includes_code_version(self, monkeypatch):
        before = _job().key()
        monkeypatch.setattr(
            "repro.runner.job.code_version", lambda: "deadbeef")
        assert _job().key() != before  # code changes invalidate cached keys
        assert code_version()  # real digest is non-empty

    @pytest.mark.parametrize("base", [tiny_gpu, small_gpu])
    @pytest.mark.parametrize("label", list(SECTION_IV_CONFIGS))
    def test_key_matches_the_unmemoized_formula(self, base, label):
        config = config_for_label(base(), label)
        rebuilt = config_from_dict(dataclasses.asdict(config))
        for cfg in (config, rebuilt, config):  # the last one hits the memo
            job = Job(cfg, "sc", seed=3, iteration_scale=SCALE)
            assert job.key() == _reference_key(job)

    def test_equal_configs_built_apart_share_one_key(self):
        first = config_for_label(small_gpu(), "l2+dram")
        second = config_from_dict(dataclasses.asdict(first))
        assert first is not second and first == second
        assert Job(first, "nn").key() == Job(second, "nn").key()

    def test_equal_configs_that_encode_apart_keep_their_own_keys(self):
        # 200 == 200.0 and True == 1, but JSON spells them differently:
        # equality alone must not let one config borrow another's key.
        ints = tiny_gpu().with_magic_memory(200)
        floats = dataclasses.replace(ints, magic_latency=200.0)
        ones = dataclasses.replace(ints, magic_memory=1)
        assert ints == floats == ones
        jobs = [Job(cfg, "nn") for cfg in (ints, floats, ones, floats)]
        assert [job.key() for job in jobs] == [
            _reference_key(job) for job in jobs
        ]
        assert len({job.key() for job in jobs}) == 3
        scaled = config_for_label(ints, "l2")
        assert config_for_label(floats, "l2") == scaled
        assert type(config_for_label(floats, "l2").magic_latency) is float

    def test_validation(self):
        with pytest.raises(UsageError):
            Job(tiny_gpu(), "")
        with pytest.raises(UsageError):
            _job(max_cycles=0)
        with pytest.raises(UsageError):
            _job(iteration_scale=0.0)

    def test_job_pickles(self):
        job = _job()
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.key() == job.key()

    def test_execute_runs_the_simulation(self):
        metrics = _job().execute()
        assert metrics.instructions > 0
        assert not metrics.truncated

    def test_execute_flags_truncated_runs(self):
        metrics = _job(max_cycles=50).execute()
        assert metrics.truncated
        assert metrics.cycles <= 50

    def test_probes_enter_the_key_only_when_set(self):
        plain = _job()
        timeline = _job(probes=ProbeSpec(timeline_window=100))
        assert plain.key() == _reference_key(plain)
        assert timeline.key() != plain.key()
        assert timeline.key() != _job(
            probes=ProbeSpec(timeline_window=200)).key()
        assert timeline.key() == _job(
            probes=ProbeSpec(timeline_window=100)).key()

    def test_describe_mentions_magic_latency(self):
        job = Job(tiny_gpu().with_magic_memory(200), "nn",
                  iteration_scale=SCALE)
        assert "magic_latency=200" in job.describe()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        metrics = _job().execute()
        cache.put("k" * 64, metrics)
        assert cache.get("k" * 64) == metrics

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path / "c").get("nope") is None

    def test_corrupt_entry_is_discarded(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("k" * 64, _job().execute())
        path = cache.entries()[0]
        path.write_bytes(b"not a pickle")
        assert cache.get("k" * 64) is None
        assert cache.entries() == []

    def test_unreadable_entry_is_a_miss_that_keeps_the_file(
            self, tmp_path, monkeypatch):
        # A transient open error (here: out of file descriptors) must not
        # destroy a valid stored result.
        cache = ResultCache(tmp_path / "c")
        metrics = _job().execute()
        cache.put("k" * 64, metrics)

        def no_descriptors(*args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files")  # noqa: REP003 - the OS error under test

        with monkeypatch.context() as patch:
            patch.setattr(type(cache.entries()[0]), "open", no_descriptors)
            assert cache.get("k" * 64) is None
        assert cache.contains("k" * 64)
        assert cache.get("k" * 64) == metrics

    def test_wrong_format_is_discarded(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        path = cache.directory / "x.pkl"
        cache.directory.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"format": CACHE_FORMAT + 1}))
        assert cache.get("x") is None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        metrics = _job().execute()
        cache.put("a" * 64, metrics)
        cache.put("b" * 64, metrics)
        count, size, orphans = cache.stats()
        assert count == 2 and size > 0 and orphans == 0
        assert cache.clear() == 2
        assert cache.stats() == (0, 0, 0)

    def test_env_var_sets_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert ResultCache().directory == tmp_path / "env-cache"


class TestBatchRunnerSerial:
    def test_results_in_submission_order(self):
        jobs = [_job(seed=s) for s in (3, 1, 2)]
        results = BatchRunner.serial().run(jobs)
        expected = [job.execute() for job in jobs]
        assert results == expected

    def test_empty_batch(self):
        assert BatchRunner.serial().run([]) == []

    def test_duplicate_jobs_execute_once(self, monkeypatch):
        calls = []
        original = Job.execute
        monkeypatch.setattr(
            Job, "execute",
            lambda self: calls.append(self.seed) or original(self))
        runner = BatchRunner.serial()
        results = runner.run([_job(), _job()])
        assert len(calls) == 1
        assert results[0] == results[1]
        assert runner.last_stats.unique == 1

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")
        runner = BatchRunner(jobs=1, cache=cache)
        first = runner.run([_job()])
        assert runner.last_stats.executed == 1

        # A warm rerun must perform zero simulations: executing again
        # would mean the cache key failed to identify the job.
        def boom(self):
            raise AssertionError("cache miss: job executed")  # noqa: REP003 - monkeypatched probe must not look like a modelled failure

        monkeypatch.setattr(Job, "execute", boom)
        second = BatchRunner(jobs=1, cache=cache).run([_job()])
        assert second == first

    def test_stats_accumulate_across_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = BatchRunner(jobs=1, cache=cache)
        runner.run([_job()])
        runner.run([_job()])
        assert runner.last_stats.cache_hits == 1
        assert runner.total_stats.executed == 1
        assert runner.total_stats.cache_hits == 1
        assert runner.total_stats.jobs == 2

    def test_repro_error_is_not_retried(self, monkeypatch):
        attempts = []

        def fail(self):
            attempts.append(1)
            raise ConfigError("deterministic failure")

        monkeypatch.setattr(Job, "execute", fail)
        runner = BatchRunner.serial()
        with pytest.raises(RunnerError) as excinfo:
            runner.run([_job()])
        assert len(attempts) == 1  # rerunning a frozen config cannot help
        assert "deterministic failure" in str(excinfo.value)
        assert "nn(seed=1" in str(excinfo.value)

    def test_unexpected_error_is_retried(self, monkeypatch):
        attempts = []
        original = Job.execute

        def flaky(self):
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError("transient")  # noqa: REP003 - deliberately a non-ReproError to exercise retry
            return original(self)

        monkeypatch.setattr(Job, "execute", flaky)
        runner = BatchRunner(jobs=1, retries=2)
        [metrics] = runner.run([_job()])
        assert len(attempts) == 3
        assert runner.last_stats.retried == 2
        assert metrics.instructions > 0

    def test_retry_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(
            Job, "execute",
            lambda self: (_ for _ in ()).throw(ValueError("always")))
        with pytest.raises(RunnerError):
            BatchRunner(jobs=1, retries=1).run([_job()])

    def test_unknown_kernel_surfaces_as_runner_error(self):
        with pytest.raises(RunnerError) as excinfo:
            BatchRunner.serial().run([Job(tiny_gpu(), "doom")])
        assert "doom" in str(excinfo.value)

    def test_invalid_construction(self):
        with pytest.raises(UsageError):
            BatchRunner(jobs=0)
        with pytest.raises(UsageError):
            BatchRunner(retries=-1)


class TestBatchRunnerPool:
    """The process-pool path (jobs > 1 with more than one pending job)."""

    def test_pool_matches_serial(self):
        jobs = [_job(seed=s) for s in (1, 2, 3)]
        serial = BatchRunner(jobs=1).run(jobs)
        parallel = BatchRunner(jobs=4).run(jobs)
        assert parallel == serial

    def test_probe_extras_match_in_process(self):
        # Observers run inside the worker; their summaries come back
        # pickled in extras, equal to an in-process run's.
        probes = ProbeSpec(
            sanitize_interval=8, timeline_window=100, trace_stride=4,
            attribution_window=200)
        jobs = [_job(probes=probes), _job(seed=2, probes=probes)]
        pooled = BatchRunner(jobs=2).run(jobs)
        for job, metrics in zip(jobs, pooled):
            assert set(metrics.extras) == {
                "sanitizer", "timeline", "trace", "trace_hops", "breakdown",
                "attribution"}
            assert metrics.extras == job.execute().extras

    def test_pool_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = BatchRunner(jobs=4, cache=cache)
        jobs = [_job(seed=s) for s in (1, 2)]
        runner.run(jobs)
        assert cache.stats()[0] == 2
        warm = BatchRunner(jobs=4, cache=cache)
        warm.run(jobs)
        assert warm.last_stats.cache_hits == 2
        assert warm.last_stats.executed == 0

    def test_worker_crash_is_retried(self, tmp_path, monkeypatch):
        fault = tmp_path / "fault"
        fault.write_text("1")  # first worker to pick this up dies hard
        monkeypatch.setenv(FAULT_ENV, str(fault))
        runner = BatchRunner(jobs=2, retries=2)
        results = runner.run([_job(seed=s) for s in (1, 2)])
        assert len(results) == 2
        assert runner.last_stats.retried >= 1
        assert fault.read_text().strip() == "0"

    def test_persistent_crash_exhausts_retries(self, tmp_path, monkeypatch):
        fault = tmp_path / "fault"
        fault.write_text("99")  # every attempt dies
        monkeypatch.setenv(FAULT_ENV, str(fault))
        runner = BatchRunner(jobs=2, retries=0)
        with pytest.raises(RunnerError) as excinfo:
            runner.run([_job(seed=s) for s in (1, 2)])
        assert "crashed" in str(excinfo.value)

    def test_crash_after_retry_reports_fresh_diagnostics(
            self, tmp_path, monkeypatch):
        """A crash in retry round N must not surface round N-1's error.

        Round 1: the bad job raises an ordinary exception (recorded as
        that round's crash diagnostics).  Round 2: the same job kills its
        worker outright, which breaks the pool with no specific error.
        The failure summary must carry round 2's generic crash text, not
        the stale round-1 exception.  (Relies on the fork start method:
        pool workers inherit the monkeypatched ``Job.execute``.)
        """
        counter = tmp_path / "attempts"

        def two_phase(self):
            if self.seed == 99:
                with open(counter, "ab") as handle:
                    handle.write(b"x")
                if os.path.getsize(counter) == 1:
                    raise ValueError("round-one noise")  # noqa: REP003 - deliberately a non-ReproError to exercise retry
                os._exit(13)  # hard crash: breaks the pool
            return original(self)

        original = Job.execute
        monkeypatch.setattr(Job, "execute", two_phase)
        runner = BatchRunner(jobs=2, retries=1)
        with pytest.raises(RunnerError) as excinfo:
            runner.run([_job(seed=1), _job(seed=99)])
        text = str(excinfo.value)
        assert "worker crashed (process pool broken)" in text
        assert "round-one noise" not in text

    def test_pool_repro_error_not_retried(self):
        jobs = [Job(tiny_gpu(), "doom"), Job(tiny_gpu(), "lbm",
                                             iteration_scale=SCALE)]
        runner = BatchRunner(jobs=2, retries=2)
        with pytest.raises(RunnerError) as excinfo:
            runner.run(jobs)
        # The healthy job completed; only the bad one is reported.
        assert "doom" in str(excinfo.value)
        assert runner.last_stats.executed == 1


def _read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEventLog:
    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "log" / "events.jsonl"  # parent dir is created
        with EventLog(path) as log:
            log.emit("alpha", value=1)
            log.emit("beta", nested={"x": [1, 2]})
        events = _read_events(path)
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["value"] == 1
        assert events[1]["nested"] == {"x": [1, 2]}
        for event in events:
            assert event["t"] >= 0.0  # monotonic offset from log creation
            assert event["ts"] > 0.0  # wall-clock epoch
        assert log.events_written == 2

    def test_append_only_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("first")
        with EventLog(path) as log:
            log.emit("second")
        assert [e["event"] for e in _read_events(path)] == ["first", "second"]

    def test_serial_run_emits_lifecycle_events(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        runner = BatchRunner(jobs=1, events=log)
        runner.run([_job()])
        log.close()
        names = [e["event"] for e in _read_events(log.path)]
        assert names[0] == "batch_start"
        assert names[-1] == "batch_end"
        assert "job_start" in names
        assert "job_finish" in names

    def test_job_finish_carries_wall_time(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        BatchRunner(jobs=1, events=log).run([_job()])
        log.close()
        finish = [
            e for e in _read_events(log.path) if e["event"] == "job_finish"]
        assert len(finish) == 1
        assert finish[0]["wall_s"] > 0.0
        assert finish[0]["truncated"] is False
        assert finish[0]["attempt"] == 1

    def test_cache_hits_are_logged(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        BatchRunner(jobs=1, cache=cache).run([_job()])
        log = EventLog(tmp_path / "events.jsonl")
        BatchRunner(jobs=1, cache=cache, events=log).run([_job()])
        log.close()
        events = _read_events(log.path)
        hits = [e for e in events if e["event"] == "cache_hit"]
        assert len(hits) == 1
        assert "nn(seed=1" in hits[0]["job"]
        batch_end = [e for e in events if e["event"] == "batch_end"][0]
        assert batch_end["cache_hits"] == 1
        assert batch_end["executed"] == 0

    def test_retries_and_fatal_errors_are_logged(self, tmp_path, monkeypatch):
        attempts = []
        original = Job.execute

        def flaky(self):
            attempts.append(1)
            if len(attempts) < 2:
                raise ValueError("transient")  # noqa: REP003 - deliberately a non-ReproError to exercise retry
            return original(self)

        monkeypatch.setattr(Job, "execute", flaky)
        log = EventLog(tmp_path / "events.jsonl")
        BatchRunner(jobs=1, retries=2, events=log).run([_job()])
        log.close()
        events = _read_events(log.path)
        retry = [e for e in events if e["event"] == "job_retry"]
        assert len(retry) == 1
        assert "transient" in retry[0]["error"]

        monkeypatch.setattr(
            Job, "execute",
            lambda self: (_ for _ in ()).throw(ConfigError("frozen")))
        log = EventLog(tmp_path / "fatal.jsonl")
        with pytest.raises(RunnerError):
            BatchRunner(jobs=1, events=log).run([_job()])
        log.close()
        errors = [
            e for e in _read_events(log.path) if e["event"] == "job_error"]
        assert len(errors) == 1
        assert errors[0]["fatal"] is True

    def test_pool_run_emits_events_and_utilization(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        runner = BatchRunner(jobs=2, events=log)
        runner.run([_job(seed=s) for s in (1, 2)])
        log.close()
        events = _read_events(log.path)
        assert sum(1 for e in events if e["event"] == "job_finish") == 2
        batch_end = [e for e in events if e["event"] == "batch_end"][0]
        assert batch_end["workers"] == 2
        assert batch_end["busy_s"] > 0.0
        assert 0.0 <= batch_end["pool_utilization"] <= 1.0

    def test_events_never_reach_stdout(self, tmp_path, capsys):
        log = EventLog(tmp_path / "events.jsonl")
        BatchRunner(jobs=1, events=log).run([_job()])
        log.close()
        captured = capsys.readouterr()
        assert captured.out == ""


class TestProgressLine:
    def test_rewrites_one_line(self):
        stream = io.StringIO()
        line = ProgressLine(stream=stream, tty=True)
        line.update(1, 3)
        line.update(3, 3, cached=1, retried=2, failed=1)
        line.finish()
        text = stream.getvalue()
        assert text.startswith("\r[1/3] jobs done")
        assert "[3/3] jobs done (1 cached, 2 retried, 1 failed)" in text
        assert text.endswith("\n")

    def test_non_tty_stream_gets_plain_lines(self):
        # A StringIO has no isatty -> redirected stderr must never see
        # carriage-return rewrite sequences, only whole lines.
        stream = io.StringIO()
        line = ProgressLine(stream=stream)
        line.update(1, 2)
        line.update(2, 2)
        line.finish()
        text = stream.getvalue()
        assert "\r" not in text
        assert text.splitlines() == [
            "[1/2] jobs done (0 cached)", "[2/2] jobs done (0 cached)"]

    def test_finish_without_updates_is_silent(self):
        stream = io.StringIO()
        ProgressLine(stream=stream).finish()
        assert stream.getvalue() == ""

    def test_runner_progress_leaves_stdout_untouched(self, capsys):
        runner = BatchRunner(jobs=1, progress=True)
        runner.run([_job()])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[1/1] jobs done" in captured.err

    def test_non_tty_updates_are_throttled(self, monkeypatch):
        # Regression: plain mode used to emit one line per completed
        # job, flooding CI logs on large sweeps.  Updates inside the
        # interval that advance less than percent_step stay silent.
        clock = {"now": 100.0}
        monkeypatch.setattr(
            "repro.runner.events.time.monotonic", lambda: clock["now"])
        stream = io.StringIO()
        line = ProgressLine(stream=stream, min_interval=5.0,
                            percent_step=10.0)
        line.update(1, 100)  # first update always emits
        clock["now"] += 1.0
        line.update(2, 100)  # +1% after 1s: suppressed
        line.update(3, 100)  # suppressed
        clock["now"] += 5.0
        line.update(4, 100)  # min_interval elapsed: emits
        line.update(15, 100)  # +11% > percent_step: emits
        line.update(100, 100)  # final count always emits
        line.finish()
        emitted = stream.getvalue().splitlines()
        assert [text.split("]")[0] + "]" for text in emitted] == [
            "[1/100]", "[4/100]", "[15/100]", "[100/100]"]

    def test_non_tty_new_failures_bypass_throttle(self, monkeypatch):
        clock = {"now": 100.0}
        monkeypatch.setattr(
            "repro.runner.events.time.monotonic", lambda: clock["now"])
        stream = io.StringIO()
        line = ProgressLine(stream=stream, min_interval=60.0,
                            percent_step=50.0)
        line.update(1, 100)
        line.update(2, 100, failed=1)  # new failure: emits immediately
        line.update(3, 100, failed=1)  # failure count unchanged: silent
        emitted = stream.getvalue().splitlines()
        assert len(emitted) == 2
        assert "1 failed" in emitted[1]

    def test_tty_updates_are_never_throttled(self, monkeypatch):
        clock = {"now": 100.0}
        monkeypatch.setattr(
            "repro.runner.events.time.monotonic", lambda: clock["now"])
        stream = io.StringIO()
        line = ProgressLine(stream=stream, tty=True, min_interval=60.0,
                            percent_step=50.0)
        for done in (1, 2, 3):
            line.update(done, 100)
        # Every update redrew the line: three carriage returns.
        assert stream.getvalue().count("\r") == 3


class TestCacheUsageStats:
    def test_usage_counters_accumulate(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        BatchRunner(jobs=1, cache=cache).run([_job()])
        BatchRunner(jobs=1, cache=cache).run([_job()])
        assert cache.usage_stats() == {"hits": 1, "misses": 1, "batches": 2}

    def test_usage_file_is_not_a_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        BatchRunner(jobs=1, cache=cache).run([_job()])
        assert cache.stats()[0] == 1  # the sidecar is not counted

    def test_clear_resets_usage(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        BatchRunner(jobs=1, cache=cache).run([_job()])
        cache.clear()
        assert cache.usage_stats() == {"hits": 0, "misses": 0, "batches": 0}

    def test_corrupt_sidecar_is_a_fresh_start(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.directory.mkdir(parents=True)
        # A writer killed mid-append leaves a torn, newline-less line.
        (cache.directory / "_usage_deltas.jsonl").write_text('{"hits": 5, "mi')
        assert cache.usage_stats() == {"hits": 0, "misses": 0, "batches": 0}
        cache.record_usage(hits=2, misses=1)
        assert cache.usage_stats() == {"hits": 2, "misses": 1, "batches": 1}


class TestCLI:
    TINY = ["--config", "tiny", "--scale", "0.1"]
    #: Every command that runs through the runner, with the files it
    #: writes ({out} is replaced per invocation).
    COMMANDS = [
        (["congestion", *TINY, "--benchmarks", "nn", "sc"], None),
        (["latency-profile", *TINY, "--benchmarks", "nn",
          "--latencies", "0", "200"], None),
        (["explore", *TINY, "--benchmarks", "nn"], None),
        (["diagnose", *TINY, "--benchmarks", "nn", "leukocyte"], None),
        (["replicate", "sc", *TINY, "--seeds", "1", "2"], None),
        (["validate", "--config", "tiny", "--scale", "0.05"], None),
        (["run", "nn", *TINY, "--timeline", "100"], None),
        (["profile", "sc", *TINY, "--diff", "baseline", "l2",
          "--json", "{out}"], "{out}"),
        (["trace", "nn", *TINY, "--stride", "1", "--out", "{out}"],
         "{out}"),
        (["breakdown", "lbm", *TINY], None),
    ]

    def test_jobs_1_jobs_4_and_warm_cache_are_byte_identical(
            self, capsys, tmp_path):
        """--jobs 1, --jobs 2 --no-cache and a warm cache agree on
        stdout and written files; the warm rerun simulates nothing."""
        modes = {
            "serial": ["--jobs", "1"],
            "pool": ["--jobs", "2", "--no-cache"],
            "warm": ["--jobs", "2"],
        }
        for index, (args, written) in enumerate(self.COMMANDS):
            outputs = {}
            for mode, flags in modes.items():
                out = tmp_path / f"{index}.out"  # stdout names the path
                events = tmp_path / f"{index}-{mode}.jsonl"
                argv = [a.replace("{out}", str(out)) for a in args]
                status = main([*argv, *flags, "--events", str(events)])
                assert status in (0, 1), (args, mode)  # 1: a claim failed
                captured = capsys.readouterr()
                files = out.read_bytes() if written else b""
                outputs[mode] = (status, captured.out, files)
                names = [e["event"] for e in _read_events(events)]
                if mode == "warm":
                    assert "job_finish" not in names, args
                    assert "cache_hit" in names, args
                    assert "served from cache" in captured.err
            assert outputs["pool"] == outputs["serial"], args
            assert outputs["warm"] == outputs["serial"], args

    def test_sanitizer_violation_exits_2_without_retry(
            self, capsys, monkeypatch, tmp_path):
        # Registering every request twice is a real conservation
        # violation, caught by the sanitizer inside the job.
        register = Sanitizer.on_create

        def twice(self, request):
            register(self, request)
            register(self, request)

        monkeypatch.setattr(Sanitizer, "on_create", twice)
        events = tmp_path / "events.jsonl"
        assert main([
            "run", "nn", *self.TINY, "--sanitize", "--jobs", "1",
            "--no-cache", "--events", str(events),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "[request-conservation] request id 0 allocated twice" in err
        names = [e["event"] for e in _read_events(events)]
        assert names.count("job_start") == 1
        assert "job_retry" not in names

    def test_run_uses_cache_on_rerun(self, capsys):
        args = ["run", "nn", "--config", "tiny", "--scale", "0.1"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "served from cache" in second.err

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "cli-cache"
        args = ["run", "nn", "--config", "tiny", "--scale", "0.1",
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_events_and_progress_flags(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main([
            "congestion", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn", "sc", "--jobs", "2",
            "--events", str(events), "--progress",
        ]) == 0
        captured = capsys.readouterr()
        names = [e["event"] for e in _read_events(events)]
        assert "batch_start" in names and "batch_end" in names
        assert names.count("job_finish") == 2
        assert "[2/2] jobs done" in captured.err
        assert "jobs done" not in captured.out  # stdout stays a pure report

    def test_cache_info_reports_hit_rate(self, capsys, tmp_path):
        cache_dir = tmp_path / "cli-cache"
        args = ["run", "nn", "--config", "tiny", "--scale", "0.1",
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "50.0% hit rate" in out
        assert "2 batches" in out

    def test_no_cache_flag_bypasses_store(self, capsys, tmp_path):
        cache_dir = tmp_path / "cli-cache"
        assert main([
            "run", "nn", "--config", "tiny", "--scale", "0.1",
            "--cache-dir", str(cache_dir), "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_failed_batch_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            Job, "execute",
            lambda self: (_ for _ in ()).throw(ConfigError("boom")))
        assert main([
            "congestion", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn", "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "boom" in err


class TestTruncationFlag:
    def test_truncated_metrics_survive_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = BatchRunner(jobs=1, cache=cache)
        [cold] = runner.run([_job(max_cycles=50)])
        [warm] = BatchRunner(jobs=1, cache=cache).run([_job(max_cycles=50)])
        assert cold.truncated and warm.truncated

    def test_truncated_is_exported(self):
        metrics = _job(max_cycles=50).execute()
        from repro.core.export import metrics_to_dict
        assert metrics_to_dict(metrics)["truncated"] is True

    def test_runmetrics_default_is_not_truncated(self):
        assert RunMetrics.__dataclass_fields__["truncated"].default is False
