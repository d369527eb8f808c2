"""Campaign tests: manifest lifecycle, claim protocol, shared-store
concurrency (multi-process put/get and usage-delta hammering), LRU
eviction, kill-resume with zero re-simulation, and the CLI surface.

Multi-process tests rely on the Linux ``fork`` start method: child
processes inherit the parent's (possibly monkeypatched) module state, and
``Process`` targets need not be picklable.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.export import export_runs
from repro.core.metrics import ProbeSpec
from repro.errors import ConfigError, RunnerError, UsageError
from repro.runner import (
    BatchRunner,
    CampaignManifest,
    CampaignWorker,
    Job,
    ResultCache,
    WorkUnit,
    campaign_results,
    campaign_status,
    render_status,
)
from repro.runner.campaign import (
    default_store,
    read_claims,
    read_ledger,
    release_claim,
    try_claim,
)
from repro.sim.config import config_from_dict, tiny_gpu

#: Cheap jobs: tiny config, heavily scaled down.
SCALE = 0.05


def _job(**overrides):
    defaults = dict(seed=1, iteration_scale=SCALE)
    defaults.update(overrides)
    return Job(tiny_gpu(), "nn", **defaults)


def _fork():
    return multiprocessing.get_context("fork")


class TestConfigFromDict:
    def test_roundtrip(self):
        config = tiny_gpu()
        assert config_from_dict(dataclasses.asdict(config)) == config

    def test_roundtrip_magic_memory(self):
        config = tiny_gpu().with_magic_memory(200)
        assert config_from_dict(dataclasses.asdict(config)) == config

    def test_unknown_top_level_field(self):
        payload = dataclasses.asdict(tiny_gpu())
        payload["warp_drive"] = 9
        with pytest.raises(ConfigError):
            config_from_dict(payload)

    def test_unknown_subconfig_field(self):
        payload = dataclasses.asdict(tiny_gpu())
        payload["l2"]["flux_capacitor"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(payload)

    def test_non_mapping_subconfig(self):
        payload = dataclasses.asdict(tiny_gpu())
        payload["dram"] = "fast please"
        with pytest.raises(ConfigError):
            config_from_dict(payload)


class TestManifest:
    def test_create_load_roundtrip(self, tmp_path):
        jobs = [_job(seed=s) for s in (1, 2)]
        created = CampaignManifest.create(tmp_path / "camp", jobs)
        loaded = CampaignManifest.load(tmp_path / "camp")
        assert loaded.keys() == created.keys() == [j.key() for j in jobs]
        assert loaded.code == created.code
        assert [u.job for u in loaded.units] == jobs

    def test_dedupes_by_key_preserving_order(self, tmp_path):
        jobs = [_job(seed=2), _job(seed=1), _job(seed=2)]
        manifest = CampaignManifest.create(tmp_path / "camp", jobs)
        assert manifest.keys() == [jobs[0].key(), jobs[1].key()]

    def test_refuses_overwrite(self, tmp_path):
        CampaignManifest.create(tmp_path / "camp", [_job()])
        with pytest.raises(UsageError, match="already exists"):
            CampaignManifest.create(tmp_path / "camp", [_job(seed=2)])

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(UsageError):
            CampaignManifest.create(tmp_path / "camp", [])

    def test_load_missing(self, tmp_path):
        with pytest.raises(UsageError, match="no campaign manifest"):
            CampaignManifest.load(tmp_path / "nowhere")

    def test_workunit_payload_roundtrip(self):
        unit = WorkUnit(key=_job().key(), job=_job())
        clone = WorkUnit.from_payload(unit.to_payload())
        assert clone == unit

    def test_probe_job_survives_the_manifest(self, tmp_path):
        probed = _job(probes=ProbeSpec(trace_stride=1, trace_limit=0))
        camp = tmp_path / "camp"
        created = CampaignManifest.create(camp, [probed, _job()])
        assert CampaignManifest.load(camp).units == created.units
        report = CampaignWorker(camp, worker="solo", jobs=1, poll=0.01).run(
            wait=False)
        assert report.executed == 2 and report.failed == 0
        assert campaign_status(camp).complete
        assert "probes" not in created.units[1].to_payload()

    def test_malformed_payload(self):
        payload = WorkUnit(key=_job().key(), job=_job()).to_payload()
        del payload["kernel"]
        with pytest.raises(UsageError, match="malformed"):
            WorkUnit.from_payload(payload)
        payload = WorkUnit(key=_job().key(), job=_job()).to_payload()
        payload["key"] = ""
        with pytest.raises(UsageError, match="missing key"):
            WorkUnit.from_payload(payload)

    def test_code_drift_locks_execution(self, tmp_path, monkeypatch):
        CampaignManifest.create(tmp_path / "camp", [_job()])
        monkeypatch.setattr(
            "repro.runner.campaign.code_version", lambda: "deadbeef")
        with pytest.raises(UsageError, match="code changed"):
            CampaignWorker(tmp_path / "camp", worker="w")
        # Status stays readable; it just flags the drift.
        status = campaign_status(tmp_path / "camp")
        assert status.code_drift
        assert "code changed" in render_status(status)


def _race_claim(directory, key, name, wins_path, barrier):
    barrier.wait()
    if try_claim(directory, key, name):
        with open(wins_path, "a") as handle:  # O_APPEND: atomic line
            handle.write(name + "\n")


class TestClaims:
    def test_single_winner_then_release(self, tmp_path):
        assert try_claim(tmp_path, "k1", "a")
        assert not try_claim(tmp_path, "k1", "b")
        assert read_claims(tmp_path)["k1"]["worker"] == "a"
        release_claim(tmp_path, "k1")
        assert try_claim(tmp_path, "k1", "b")
        assert read_claims(tmp_path)["k1"]["worker"] == "b"

    def test_stale_takeover(self, tmp_path):
        assert try_claim(tmp_path, "k1", "dead")
        claim = tmp_path / "claims" / "k1.claim"
        old = time.time() - 3600  # noqa: REP001 - backdating a claim heartbeat under test
        os.utime(claim, (old, old))
        # Not stale yet under a generous timeout: the claim holds.
        assert not try_claim(tmp_path, "k1", "b", stale_after=7200)
        # Stale under a tight timeout: taken over.
        assert try_claim(tmp_path, "k1", "b", stale_after=60)
        assert read_claims(tmp_path)["k1"]["worker"] == "b"

    def test_multiprocess_contention_single_winner(self, tmp_path):
        wins = tmp_path / "wins"
        wins.touch()
        ctx = _fork()
        barrier = ctx.Barrier(8)
        procs = [
            ctx.Process(
                target=_race_claim,
                args=(str(tmp_path), "contended", f"w{i}", str(wins),
                      barrier),
            )
            for i in range(8)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        winners = wins.read_text().splitlines()
        assert len(winners) == 1
        assert read_claims(tmp_path)["contended"]["worker"] == winners[0]


def _hammer_usage(directory, rounds, barrier):
    barrier.wait()
    cache = ResultCache(directory)
    for _ in range(rounds):
        cache.record_usage(hits=1, misses=2)


def _hammer_store(directory, metrics, keys, misses_path, barrier):
    barrier.wait()
    cache = ResultCache(directory)
    misses = 0
    for _ in range(5):
        for key in keys:
            cache.put(key, metrics)
            if cache.get(key) is None:
                misses += 1
    with open(misses_path, "a") as handle:
        handle.write(f"{misses}\n")


class TestSharedStoreConcurrency:
    def test_record_usage_loses_no_counts(self, tmp_path):
        """8 concurrent recorders x 25 batches: totals must be exact."""
        directory = tmp_path / "c"
        ctx = _fork()
        barrier = ctx.Barrier(8)
        procs = [
            ctx.Process(
                target=_hammer_usage, args=(str(directory), 25, barrier))
            for _ in range(8)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)
        assert ResultCache(directory).usage_stats() == {
            "hits": 200, "misses": 400, "batches": 200,
        }

    def test_concurrent_put_get_never_reads_torn_entries(self, tmp_path):
        directory = tmp_path / "c"
        misses = tmp_path / "misses"
        misses.touch()
        metrics = _job().execute()
        keys = [c * 64 for c in "abcd"]
        ctx = _fork()
        barrier = ctx.Barrier(6)
        procs = [
            ctx.Process(
                target=_hammer_store,
                args=(str(directory), metrics, keys, str(misses), barrier),
            )
            for _ in range(6)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)
        # Atomic replace: a reader racing writers sees the old entry or
        # the new one, never nothing and never a torn pickle.
        assert misses.read_text().splitlines() == ["0"] * 6
        cache = ResultCache(directory)
        for key in keys:
            assert cache.get(key) == metrics
        assert cache.stats().orphans == 0


class TestStoreBounds:
    def test_orphan_temps_counted_and_swept(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a" * 64, _job().execute())
        (cache.directory / ("b" * 64 + ".pkl.tmp9999")).write_bytes(b"part")
        entries, size, orphans = cache.stats()
        assert (entries, orphans) == (1, 1) and size > 0
        assert len(cache.orphan_temps()) == 1
        assert cache.clear() == 1  # orphans swept but not counted
        assert cache.stats() == (0, 0, 0)

    def test_lru_eviction_order_and_protection(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        metrics = _job().execute()
        for key in ("a" * 64, "b" * 64, "c" * 64):
            cache.put(key, metrics)
        entry = cache.stats().total_bytes // 3
        now = time.time()  # noqa: REP001 - backdating mtimes to order LRU recency under test
        os.utime(cache._path("a" * 64), (now - 300, now - 300))
        os.utime(cache._path("b" * 64), (now - 200, now - 200))
        # A get() hit refreshes recency: touch the oldest, then the next
        # oldest is the one evicted.
        assert cache.get("a" * 64) == metrics
        evicted = cache.evict(entry * 2)
        assert evicted == ["b" * 64]
        assert cache.contains("a" * 64) and cache.contains("c" * 64)

    def test_put_with_max_bytes_keeps_newest(self, tmp_path):
        # An oversized single entry is stored, not thrashed: the entry
        # just written is never evicted.
        cache = ResultCache(tmp_path / "c", max_bytes=1)
        metrics = _job().execute()
        cache.put("a" * 64, metrics)
        assert cache.contains("a" * 64)
        cache.put("b" * 64, metrics)
        assert cache.contains("b" * 64)
        assert not cache.contains("a" * 64)

    def test_index_follows_the_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        metrics = _job().execute()
        cache.put("a" * 64, metrics)
        cache.put("b" * 64, metrics)
        index = cache.index()
        assert set(index) == {"a" * 64, "b" * 64}
        assert all(meta["bytes"] > 0 for meta in index.values())
        os.unlink(cache._path("a" * 64))
        assert set(cache.index()) == {"b" * 64}


def _run_campaign_worker(directory, name):
    report = CampaignWorker(
        directory, worker=name, jobs=1, poll=0.05).run(wait=True)
    os._exit(0 if report.failed == 0 else 3)


class TestCampaignWorkers:
    def test_single_worker_completes_campaign(self, tmp_path):
        jobs = [_job(seed=s) for s in (1, 2)]
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, jobs)
        report = CampaignWorker(camp, worker="solo", jobs=1, poll=0.01).run()
        assert report.executed == 2 and report.failed == 0
        status = campaign_status(camp)
        assert status.complete and status.done == 2 and status.failed == 0
        assert not status.claims
        assert status.workers["solo"]["finished"] == 2
        assert campaign_results(camp) == [job.execute() for job in jobs]

    def test_two_workers_dedupe_and_match_serial(self, tmp_path):
        jobs = [_job(seed=s) for s in (1, 2, 3)]
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, jobs)
        ctx = _fork()
        procs = [
            ctx.Process(
                target=_run_campaign_worker, args=(str(camp), f"w{i}"))
            for i in (1, 2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=300)
        assert all(proc.exitcode == 0 for proc in procs)
        # Per-key dedupe: every unit finished exactly once.
        done = [r["key"] for r in read_ledger(camp) if r["status"] == "done"]
        assert sorted(done) == sorted(CampaignManifest.load(camp).keys())
        # The export contract: racing workers == serial run, byte for byte.
        serial = [job.execute() for job in jobs]
        assert campaign_results(camp) == serial
        merged = export_runs(campaign_results(camp), tmp_path / "camp.csv")
        reference = export_runs(serial, tmp_path / "serial.csv")
        assert merged.read_bytes() == reference.read_bytes()

    def test_kill_resume_resimulates_nothing(self, tmp_path, monkeypatch):
        jobs = [_job(seed=s) for s in range(1, 7)]
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, jobs)
        original = Job.execute

        def slowed(self):
            time.sleep(0.15)  # widen the mid-flight window for the kill
            return original(self)

        monkeypatch.setattr(Job, "execute", slowed)  # inherited via fork
        ctx = _fork()
        proc = ctx.Process(
            target=_run_campaign_worker, args=(str(camp), "doomed"))
        proc.start()
        store = default_store(camp)
        deadline = time.monotonic() + 60  # noqa: REP001 - test timeout bookkeeping
        while time.monotonic() < deadline:  # noqa: REP001 - test timeout bookkeeping
            if store.stats().entries >= 1:
                break
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=60)
        done_before = {
            unit.key for unit in CampaignManifest.load(camp).units
            if store.contains(unit.key)
        }
        assert done_before  # the worker was killed genuinely mid-flight

        executed = []

        def counting(self):
            executed.append(self.key())
            return original(self)

        monkeypatch.setattr(Job, "execute", counting)
        report = CampaignWorker(
            camp, worker="resumer", jobs=1, stale_after=0.0, poll=0.01,
        ).run(wait=True)
        # Zero re-simulation: nothing already in the store ran again,
        # and the resumer did exactly the remainder.
        assert not set(executed) & done_before
        assert report.executed == len(jobs) - len(done_before)
        status = campaign_status(camp)
        assert status.complete and status.failed == 0
        assert len(campaign_results(camp)) == len(jobs)

    def test_failed_unit_settles_the_campaign(self, tmp_path):
        camp = tmp_path / "camp"
        good = _job()
        bad = Job(tiny_gpu(), "doom")  # unknown kernel: deterministic fail
        CampaignManifest.create(camp, [good, bad])
        report = CampaignWorker(
            camp, worker="w", jobs=1, poll=0.01, retries=0).run(wait=True)
        assert report.executed == 1 and report.failed == 1
        status = campaign_status(camp)
        assert status.complete and status.done == 1 and status.failed == 1
        with pytest.raises(RunnerError, match="no stored result"):
            campaign_results(camp)
        failures = [r for r in read_ledger(camp) if r["status"] == "failed"]
        assert len(failures) == 1 and failures[0]["key"] == bad.key()

    def test_retry_failed_reruns_only_failures(self, tmp_path, monkeypatch):
        camp = tmp_path / "camp"
        jobs = [_job(seed=1), _job(seed=2)]
        CampaignManifest.create(camp, jobs)
        original = Job.execute

        def broken_for_seed_2(self):
            if self.seed == 2:
                raise ConfigError("bad config")
            return original(self)

        monkeypatch.setattr(Job, "execute", broken_for_seed_2)
        report = CampaignWorker(camp, worker="w1", jobs=1, poll=0.01).run()
        assert report.executed == 1 and report.failed == 1
        # A plain resume skips ledger-failed units (and must terminate).
        report = CampaignWorker(camp, worker="w2", jobs=1, poll=0.01).run()
        assert report.executed == 0 and report.failed == 0
        # retry-failed with the failure fixed finishes the campaign.
        monkeypatch.setattr(Job, "execute", original)
        report = CampaignWorker(
            camp, worker="w3", jobs=1, poll=0.01, retry_failed=True).run()
        assert report.executed == 1 and report.failed == 0
        assert campaign_status(camp).complete
        assert len(campaign_results(camp)) == 2


class TestCampaignCLI:
    SWEEP = ["--config", "tiny", "--scale", str(SCALE),
             "--benchmarks", "nn", "sc", "--seeds", "1"]

    def test_run_status_resume_export(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        out = tmp_path / "results.csv"
        assert main(["campaign", "run", camp, *self.SWEEP,
                     "--jobs", "1", "--worker", "w1",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "campaign complete" in captured.out
        assert "executed 2" in captured.err
        assert main(["campaign", "status", camp]) == 0
        status_out = capsys.readouterr().out
        assert "2 done" in status_out and "campaign complete" in status_out
        # Resuming a finished campaign re-simulates nothing.
        assert main(["campaign", "resume", camp, "--jobs", "1",
                     "--worker", "w2"]) == 0
        assert "executed 0" in capsys.readouterr().err
        # The campaign export equals the plain serial export, byte for byte.
        reference = tmp_path / "serial.csv"
        assert main(["export", str(reference), "--config", "tiny",
                     "--scale", str(SCALE), "--benchmarks", "nn", "sc",
                     "--seed", "1", "--jobs", "1", "--no-cache"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == reference.read_bytes()

    def test_joining_with_different_sweep_is_refused(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        assert main(["campaign", "run", camp, *self.SWEEP,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", camp, "--config", "tiny",
                     "--scale", str(SCALE), "--benchmarks", "nn",
                     "--seeds", "9", "--jobs", "1"]) == 2
        assert "different work list" in capsys.readouterr().err

    def test_rerunning_same_sweep_joins(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        assert main(["campaign", "run", camp, *self.SWEEP,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", camp, *self.SWEEP,
                     "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "executed 0" in captured.err
        assert "2 already done" in captured.err

    def test_status_on_missing_campaign_errors(self, capsys, tmp_path):
        assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
        assert "no campaign manifest" in capsys.readouterr().err


def _worker_sigterm_victim(directory):
    """Child: SIGTERM itself mid-batch; held claims must be released."""
    def bomb(self, jobs):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(10)
        return []

    BatchRunner.run = bomb
    CampaignWorker(directory, worker="victim", jobs=1, poll=0.01).run()
    os._exit(0)  # unreachable: SystemExit(143) unwinds first


class TestWorkerLifecycle:
    """Claim-freshness and claim-release regression tests."""

    def test_heartbeat_thread_keeps_claim_fresh_mid_batch(
        self, tmp_path, monkeypatch
    ):
        # Regression: heartbeats used to fire only between batches, so a
        # single simulation longer than stale_after let another worker
        # steal the claim mid-flight and duplicate the work.
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, [_job()])
        real_run = BatchRunner.run

        def slow_run(self, jobs):
            time.sleep(1.2)
            return real_run(self, jobs)

        monkeypatch.setattr(BatchRunner, "run", slow_run)
        worker = CampaignWorker(
            camp, worker="slow", jobs=1, poll=0.01, stale_after=0.4)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            deadline = time.monotonic() + 30  # noqa: REP001 - test scheduling, not simulated time
            while not read_claims(camp):
                assert time.monotonic() < deadline, "claim never appeared"  # noqa: REP001 - test scheduling, not simulated time
                time.sleep(0.01)
            key = next(iter(read_claims(camp)))
            time.sleep(0.8)  # well past stale_after
            # The background heartbeat kept the claim fresh: a takeover
            # attempt must lose even though the batch is still running.
            assert not try_claim(camp, key, "thief", stale_after=0.4)
        finally:
            thread.join(timeout=60)
        assert not read_claims(camp)
        assert campaign_status(camp).complete

    def test_evict_never_drops_manifest_protected_keys(self, tmp_path):
        # Regression: store entry presence is the campaign's
        # done-authority, so eviction of a done unit's entry silently
        # flipped it back to pending on the next status/claim pass.
        jobs = [_job(seed=s) for s in (1, 2)]
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, jobs)
        store = default_store(camp)
        metrics = jobs[0].execute()
        manifest_keys = [job.key() for job in jobs]
        for key in manifest_keys:
            store.put(key, metrics)
        store.put("f" * 64, metrics)  # unrelated, fair game
        evicted = store.evict(0)
        assert evicted == ["f" * 64]
        assert all(store.contains(key) for key in manifest_keys)

    def test_keyboard_interrupt_releases_held_claims(
        self, tmp_path, monkeypatch
    ):
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, [_job()])

        def interrupt(self, jobs):
            raise KeyboardInterrupt  # noqa: REP003 - simulating ctrl-C under test

        monkeypatch.setattr(BatchRunner, "run", interrupt)
        with pytest.raises(KeyboardInterrupt):
            CampaignWorker(camp, worker="ctrlc", jobs=1, poll=0.01).run()
        # The claim was handed back immediately, not left to go stale.
        assert not read_claims(camp)

    def test_sigterm_releases_held_claims(self, tmp_path):
        camp = tmp_path / "camp"
        CampaignManifest.create(camp, [_job()])
        ctx = _fork()
        proc = ctx.Process(
            target=_worker_sigterm_victim, args=(str(camp),))
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 128 + signal.SIGTERM
        assert not read_claims(camp)
        # The unit is untouched: still claimable by the next worker.
        assert try_claim(camp, _job().key(), "successor")
