"""Service tests: wire protocol, daemon lifecycle (coalescing, bounded
queue, drain, cancel), results byte-identity against a local export, and
the socket transports.

The daemon coalesces by submission id *before* its workers start, so
most lifecycle tests construct a :class:`ReproDaemon` without calling
``start()`` — submissions pile up deterministically in the queue and the
test controls exactly when simulation begins.  Socket tests run the real
accept loop in a thread over a unix socket in ``tmp_path``.
"""

import collections
import contextlib
import dataclasses
import socket
import sys
import threading

import pytest

from repro.core.export import runs_to_text
from repro.errors import ReproError, UsageError
from repro.runner import BatchRunner, EventLog, ResultCache
from repro.runner.cache import _read_jsonl
from repro.service import (
    ReproDaemon,
    ServiceClient,
    ServiceError,
    ServiceServer,
    build_jobs,
    submission_id,
    sweep_spec,
)
from repro.service.daemon import (
    CANCELLED,
    DONE,
    EVENTS_DIR,
    FINISHED_KEPT,
    QUEUED,
    RUNNING,
    TERMINAL,
)
import repro.service.daemon as daemon_module
from repro.service.protocol import decode_line, encode_line

#: Cheap sweep: tiny config, one benchmark, heavily scaled down.
SCALE = 0.05


def _spec(**overrides):
    defaults = dict(
        config="tiny", benchmarks=["nn"], seeds=[1], scale=SCALE)
    defaults.update(overrides)
    return sweep_spec(**defaults)


def _daemon(tmp_path, **overrides):
    defaults = dict(workers=1, jobs=1)
    defaults.update(overrides)
    return ReproDaemon(tmp_path / "state", **defaults)


def _stored(tmp_path, spec):
    """Store ``spec``'s results through a worker; return store, CSV."""
    store = ResultCache(tmp_path / "store")
    worker_daemon = _daemon(tmp_path / "w", cache=store)
    queued = worker_daemon.submit(spec)
    assert queued["state"] == QUEUED  # nothing stored yet
    worker_daemon.start()
    assert worker_daemon.wait_idle(timeout=300)
    worker_csv = worker_daemon.results(queued["id"], "csv")["text"]
    assert worker_daemon.stop(timeout=10)
    return store, worker_csv


def _counting(monkeypatch, name):
    """Count calls of ``ResultCache.<name>`` by key, calling through."""
    calls = collections.Counter()
    real = getattr(ResultCache, name)

    def counted(self, key, *args):
        calls[key] += 1
        return real(self, key, *args)

    monkeypatch.setattr(ResultCache, name, counted)
    return calls


def _event_kinds(submission):
    return [
        record.get("event")
        for record in _read_jsonl(submission.events_path)
    ]


class TestProtocol:
    def test_submission_id_is_content_addressed(self):
        keys = ["a" * 64, "b" * 64]
        assert submission_id(keys) == submission_id(list(keys))
        assert submission_id(keys) != submission_id(keys[:1])
        assert submission_id(keys) != submission_id(keys[::-1])
        assert len(submission_id(keys)) == 24

    def test_build_jobs_sweep_matrix(self):
        jobs = build_jobs(sweep_spec(
            config="tiny", benchmarks=["nn", "nw"], seeds=[1, 2],
            scale=SCALE))
        assert len(jobs) == 4
        assert {job.kernel_name for job in jobs} == {"nn", "nw"}
        assert {job.seed for job in jobs} == {1, 2}
        assert all(job.iteration_scale == SCALE for job in jobs)

    def test_build_jobs_rejects_malformed_specs(self):
        for bad in (
            {},  # neither sweep nor jobs
            {"sweep": {}, "jobs": []},  # both
            {"sweep": []},  # wrong type
            {"jobs": []},  # empty
            {"sweep": {"benchmarks": []}},  # empty sweep axis
            {"sweep": {"config": "warehouse-scale"}},  # unknown name
        ):
            with pytest.raises(ServiceError) as err:
                build_jobs(bad)
            assert err.value.code == "bad-request"

    def test_explicit_jobs_roundtrip_config_dicts(self):
        sweep_jobs = build_jobs(_spec())
        explicit = build_jobs({"jobs": [{
            "config": dataclasses.asdict(sweep_jobs[0].config),
            "kernel": "nn",
            "seed": 1,
            "iteration_scale": SCALE,
            "max_cycles": sweep_jobs[0].max_cycles,
        }]})
        assert explicit[0].key() == sweep_jobs[0].key()

    def test_line_codec_roundtrip_and_junk(self):
        payload = {"op": "submit", "spec": {"sweep": {"seeds": [1]}}}
        assert decode_line(encode_line(payload)) == payload
        with pytest.raises(ServiceError) as err:
            decode_line(b"not json\n")
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError):
            decode_line(b"[1,2,3]\n")

    def test_error_payload_survives_round_trip(self):
        error = ServiceError("queue-full", "try later")
        clone = ServiceError.from_payload(error.to_payload())
        assert (clone.code, str(clone)) == ("queue-full", "try later")
        # Unknown codes collapse to 'internal' rather than propagating.
        assert ServiceError("made-up", "x").code == "internal"
        assert isinstance(error, ReproError)


class TestDaemonLifecycle:
    def test_identical_submissions_coalesce_to_one_pass(self, tmp_path):
        daemon = _daemon(tmp_path)
        first = daemon.submit(_spec())
        second = daemon.submit(_spec())
        assert first["id"] == second["id"]
        assert (first["coalesced"], second["coalesced"]) == (False, True)
        assert second["clients"] == 2
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        status = daemon.status(first["id"])
        assert status["state"] == DONE
        submission = daemon._get(first["id"])
        kinds = _event_kinds(submission)
        # Exactly one simulation pass: one submission_start, and one
        # job_finish per unique job despite two client submits.
        assert kinds.count("submission_start") == 1
        assert kinds.count("job_finish") == len(submission.keys) == 1
        daemon.stop(timeout=10)

    def test_duplicate_jobs_inside_a_spec_dedupe(self, tmp_path):
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec(seeds=[1, 1, 1]))
        assert status["total"] == 1

    def test_queue_full_is_a_typed_rejection(self, tmp_path):
        daemon = _daemon(tmp_path, queue_depth=1)
        daemon.submit(_spec(seeds=[1]))
        with pytest.raises(ServiceError) as err:
            daemon.submit(_spec(seeds=[2]))
        assert err.value.code == "queue-full"
        # An identical spec still coalesces — it needs no queue slot.
        assert daemon.submit(_spec(seeds=[1]))["coalesced"] is True

    def test_drain_rejects_new_but_finishes_queued(self, tmp_path):
        daemon = _daemon(tmp_path)
        queued = daemon.submit(_spec())
        daemon.drain()
        with pytest.raises(ServiceError) as err:
            daemon.submit(_spec(seeds=[2]))
        assert err.value.code == "draining"
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        assert daemon.status(queued["id"])["state"] == DONE
        daemon.stop(timeout=10)

    def test_cancel_queued_submission(self, tmp_path):
        daemon = _daemon(tmp_path)  # workers never started
        queued = daemon.submit(_spec())
        cancelled = daemon.cancel(queued["id"])
        assert cancelled["state"] == CANCELLED
        with pytest.raises(ServiceError) as err:
            daemon.results(queued["id"])
        assert err.value.code == "not-done"
        # A fresh submit re-attempts under the same id.
        assert daemon.submit(_spec())["state"] == QUEUED

    def test_unknown_id_and_bad_ops_are_typed(self, tmp_path):
        daemon = _daemon(tmp_path)
        with pytest.raises(ServiceError) as err:
            daemon.status("feedfacedeadbeefcafe0123")
        assert err.value.code == "unknown-job"
        with pytest.raises(ServiceError) as err:
            daemon.handle({"op": "selfdestruct"})
        assert err.value.code == "bad-request"

    def test_failed_submission_reports_error(self, tmp_path):
        daemon = _daemon(tmp_path, retries=0)
        # Benchmark names resolve at execute time, so the submission is
        # accepted and then fails inside the batch runner.
        status = daemon.submit(_spec(benchmarks=["bogus"]))
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        final = daemon.status(status["id"])
        assert final["state"] == "failed" and final["error"]
        daemon.stop(timeout=10)

    def test_live_submission_keys_survive_eviction(self, tmp_path):
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        submission = daemon._get(status["id"])
        # The store's evict guard covers live submissions: even an
        # evict-everything request must not remove their results.
        assert daemon.cache.evict(0) == []
        assert all(daemon.cache.contains(key) for key in submission.keys)
        daemon.stop(timeout=10)


class TestDaemonResults:
    def test_results_match_local_export_bytes(self, tmp_path):
        spec = _spec(seeds=[1, 2])
        serial_jobs = build_jobs(spec)
        serial_csv = runs_to_text(
            BatchRunner(jobs=1).run(serial_jobs), "csv")
        serial_json = runs_to_text(
            BatchRunner(jobs=1).run(serial_jobs), "json")

        daemon = _daemon(tmp_path)
        status = daemon.submit(spec)
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        assert daemon.results(status["id"], "csv")["text"] == serial_csv
        assert daemon.results(status["id"], "json")["text"] == serial_json
        daemon.stop(timeout=10)

    def test_results_detect_a_cleared_store(self, tmp_path):
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        daemon.cache.clear()
        with pytest.raises(ServiceError) as err:
            daemon.results(status["id"])
        assert err.value.code == "incomplete"
        daemon.stop(timeout=10)

    def test_resubmit_after_a_cleared_store_re_simulates(self, tmp_path):
        daemon = _daemon(tmp_path)
        first = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        exported = daemon.results(first["id"], "csv")["text"]
        daemon.cache.clear()
        again = daemon.submit(_spec())
        assert again["id"] == first["id"]
        assert again["coalesced"] is False
        assert daemon.wait_idle(timeout=300)
        assert daemon.status(first["id"])["state"] == DONE
        assert daemon.results(first["id"], "csv")["text"] == exported
        daemon.stop(timeout=10)

    def test_resubmit_after_done_is_a_cache_hit(self, tmp_path):
        daemon = _daemon(tmp_path)
        first = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        again = daemon.submit(_spec())
        assert again["coalesced"] is True
        assert again["state"] == DONE
        assert again["done"] == again["total"]
        daemon.stop(timeout=10)
        assert first["id"] == again["id"]


class TestStoredSubmissions:
    """A submission whose jobs are all stored finishes inside ``submit``:
    a presence check, no batch, no store read and no event log."""

    def test_all_stored_submission_is_done_at_submit(self, tmp_path):
        spec = _spec(seeds=[1, 2, 3])
        store, worker_csv = _stored(tmp_path, spec)
        daemon = _daemon(tmp_path / "s", cache=store)  # workers never started
        events_dir = daemon.state_dir / EVENTS_DIR
        logs_before = sorted(events_dir.iterdir())
        hits_before = store.usage_stats()["hits"]
        status = daemon.submit(spec)
        assert daemon.results(status["id"], "csv")["text"] == worker_csv
        # Five distinct ids over the stored keys, in new orders.
        statuses = [status] + [
            daemon.submit(_spec(seeds=seeds))
            for seeds in ([3, 2, 1], [2], [1, 3], [3, 1, 2])
        ]
        assert len({s["id"] for s in statuses}) == 5
        for status in statuses:
            assert (status["state"], status["coalesced"]) == (DONE, False)
            assert status["done"] == status["total"]
            assert daemon.events(status["id"])["state"] == DONE
            assert daemon.events(status["id"])["events"] == []
        assert daemon.ping()["queued"] == 0
        assert sorted(events_dir.iterdir()) == logs_before
        assert store.usage_stats()["hits"] == hits_before + sum(
            s["total"] for s in statuses)
        daemon.drain()
        with pytest.raises(ServiceError) as err:
            daemon.submit(_spec(seeds=[2, 1]))  # a new id, also all stored
        assert err.value.code == "draining"
        assert daemon.stop(timeout=10)

    def test_a_corrupt_stored_entry_is_never_served(self, tmp_path):
        spec = _spec(seeds=[1, 2])
        serial_csv = runs_to_text(
            BatchRunner(jobs=1).run(build_jobs(spec)), "csv")
        store, _ = _stored(tmp_path, spec)
        entry = store._path(build_jobs(spec)[1].key())
        entry.write_bytes(entry.read_bytes()[:20])  # present, unreadable
        daemon = _daemon(tmp_path / "s", cache=store)
        status = daemon.submit(spec)
        assert (status["state"], status["coalesced"]) == (DONE, False)
        with pytest.raises(ServiceError) as err:
            daemon.results(status["id"])
        assert err.value.code == "incomplete"
        again = daemon.submit(spec)
        assert again["id"] == status["id"]
        assert (again["state"], again["coalesced"]) == (QUEUED, False)
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        kinds = _event_kinds(daemon._get(status["id"]))
        assert kinds.count("job_finish") == 1  # only the corrupt entry
        assert daemon.results(status["id"], "csv")["text"] == serial_csv
        assert daemon.stop(timeout=10)

    def test_an_at_submit_re_attempt_drops_the_replaced_log(self, tmp_path):
        spec = _spec()
        daemon = _daemon(tmp_path / "s", cache=ResultCache(tmp_path / "store"))
        queued = daemon.submit(spec)
        submission = daemon._next_submission()  # workers never started
        daemon.cancel(queued["id"])
        daemon._execute(submission)  # cancelled before its first chunk
        assert daemon.status(queued["id"])["state"] == CANCELLED
        assert submission.events_path.exists()
        _stored(tmp_path, spec)
        again = daemon.submit(spec)
        assert (again["state"], again["coalesced"]) == (DONE, False)
        assert daemon.events(queued["id"])["events"] == []
        assert not submission.events_path.exists()

    def test_registry_forgets_the_oldest_finished_submissions(self, tmp_path):
        spec = _spec()
        store, worker_csv = _stored(tmp_path, spec)
        daemon = _daemon(tmp_path / "s", cache=store)  # workers never started
        oldest = daemon.submit(spec)
        assert oldest["state"] == DONE
        # Cancelled queued submissions finish without simulating.
        for seed in range(2, FINISHED_KEPT + 4):
            queued = daemon.submit(_spec(seeds=[seed]))
            daemon.cancel(queued["id"])
        assert len(daemon._submissions) <= FINISHED_KEPT
        with pytest.raises(ServiceError) as err:
            daemon.status(oldest["id"])
        assert err.value.code == "unknown-job"
        # A forgotten submission's event log is pruned with it.
        events_dir = daemon.state_dir / EVENTS_DIR
        assert not (events_dir / f"{oldest['id']}.jsonl").exists()
        assert len(list(events_dir.iterdir())) <= len(daemon._submissions)
        again = daemon.submit(spec)
        assert again["id"] == oldest["id"]
        assert (again["state"], again["coalesced"]) == (DONE, False)
        assert daemon.results(again["id"], "csv")["text"] == worker_csv
        # At capacity, each finish forgets a finished submission, never
        # a queued one.
        waiting = daemon.submit(_spec(seeds=[FINISHED_KEPT + 4]))
        for seed in range(FINISHED_KEPT + 5, FINISHED_KEPT + 8):
            daemon.cancel(daemon.submit(_spec(seeds=[seed]))["id"])
        assert daemon.status(waiting["id"])["state"] == QUEUED
        assert len(daemon._submissions) == FINISHED_KEPT + 1

    def test_full_queue_does_not_refuse_a_stored_submission(self, tmp_path):
        spec = _spec(seeds=[1, 2])
        store, worker_csv = _stored(tmp_path, spec)
        daemon = _daemon(tmp_path / "s", cache=store, queue_depth=1)
        cold = daemon.submit(_spec(seeds=[3]))  # no worker: stays queued
        assert cold["state"] == QUEUED
        status = daemon.submit(spec)
        assert (status["state"], status["coalesced"]) == (DONE, False)
        assert daemon.results(status["id"], "csv")["text"] == worker_csv
        assert daemon.status(cold["id"])["state"] == QUEUED


    def test_one_presence_pass_per_submit(self, tmp_path, monkeypatch):
        spec = _spec(seeds=[1, 2, 1])  # a duplicate job: two unique keys
        store, _ = _stored(tmp_path, spec)
        daemon = _daemon(tmp_path / "s", cache=store)  # workers never started
        keys = [job.key() for job in build_jobs(_spec(seeds=[1, 2]))]
        cold_keys = [job.key() for job in build_jobs(_spec(seeds=[3, 4]))]
        cases = (
            (spec, keys, (DONE, False)),  # all stored
            (spec, keys, (DONE, True)),  # coalesced onto a done one
            (_spec(seeds=[3, 4]), cold_keys, (QUEUED, False)),  # queued
        )
        calls = _counting(monkeypatch, "contains")
        for submitted, unique, outcome in cases:
            calls.clear()
            status = daemon.submit(submitted)
            assert (status["state"], status["coalesced"]) == outcome
            assert dict(calls) == {key: 1 for key in unique}
            assert status["done"] == (len(unique) if outcome[0] == DONE else 0)


class TestResultsMemo:
    """``results`` keeps served keys' rendered rows and reuses them while
    their store entries are unchanged."""

    SEEDS = [1, 2, 3]

    def _served(self, tmp_path):
        """A daemon over a store holding every seed's result, plus the
        serial reference runs by seed."""
        store, _ = _stored(tmp_path, _spec(seeds=self.SEEDS))
        runs = BatchRunner(jobs=1).run(build_jobs(_spec(seeds=self.SEEDS)))
        daemon = _daemon(tmp_path / "s", cache=store)  # workers never started
        return daemon, dict(zip(self.SEEDS, runs))

    def _results(self, daemon, seeds, fmt="csv"):
        status = daemon.submit(_spec(seeds=seeds))
        assert status["state"] == DONE
        return daemon.results(status["id"], fmt)["text"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memoized_rows_are_byte_identical(
            self, tmp_path, monkeypatch, fmt):
        daemon, runs = self._served(tmp_path)
        # A miss, a hit, then mixed orders of remembered and new keys.
        for seeds in ([2], [2], [1, 2], [3, 2, 1], [2, 3], [1, 3, 2]):
            expected = runs_to_text([runs[seed] for seed in seeds], fmt)
            assert self._results(daemon, seeds, fmt) == expected
        gets = _counting(monkeypatch, "get")
        for seeds in ([3, 1, 2], [1], [2, 3]):
            expected = runs_to_text([runs[seed] for seed in seeds], fmt)
            assert self._results(daemon, seeds, fmt) == expected
        assert sum(gets.values()) == 0
        # The other format is rendered from the store, once.
        other = "json" if fmt == "csv" else "csv"
        for _ in range(2):
            assert self._results(daemon, [2, 1], other) == runs_to_text(
                [runs[2], runs[1]], other)
        assert sum(gets.values()) == 2

    def test_an_entry_changed_after_serving_is_never_served(self, tmp_path):
        daemon, runs = self._served(tmp_path)
        expected = runs_to_text([runs[1], runs[2]], "csv")
        status = daemon.submit(_spec(seeds=[1, 2]))
        assert daemon.results(status["id"], "csv")["text"] == expected
        key = build_jobs(_spec(seeds=[2]))[0].key()
        entry = daemon.cache.directory / f"{key}.pkl"
        entry.write_bytes(entry.read_bytes()[:20])  # truncated in place
        with pytest.raises(ServiceError) as err:
            daemon.results(status["id"], "csv")
        assert err.value.code == "incomplete"
        assert not entry.exists()  # the store read discarded it
        again = daemon.submit(_spec(seeds=[1, 2]))
        assert (again["id"], again["state"]) == (status["id"], QUEUED)
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        assert daemon.results(status["id"], "csv")["text"] == expected
        # A same-size replacement is another file: read, found corrupt.
        size = entry.stat().st_size
        garbage = entry.with_name(entry.name + ".tmp")
        garbage.write_bytes(b"\0" * size)
        garbage.replace(entry)
        with pytest.raises(ServiceError) as err:
            daemon.results(status["id"], "csv")
        assert err.value.code == "incomplete"
        assert daemon.stop(timeout=10)

    def test_the_memo_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_module, "RESULTS_KEPT", 2)
        daemon, runs = self._served(tmp_path)
        for seed in self.SEEDS:  # bound + 1 distinct keys
            self._results(daemon, [seed])
        assert len(daemon._rows) == 2
        newest = [job.key() for job in build_jobs(_spec(seeds=[2, 3]))]
        assert list(daemon._rows) == newest
        # The forgotten key is read from the store again, to the same bytes.
        assert self._results(daemon, [1]) == runs_to_text([runs[1]], "csv")
        assert len(daemon._rows) == 2

    def test_concurrent_results_share_the_memo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_module, "RESULTS_KEPT", 2)
        daemon, runs = self._served(tmp_path)
        orders = ([1], [2, 3], [3, 1], [1, 2, 3], [2])
        ids = [daemon.submit(_spec(seeds=seeds))["id"] for seeds in orders]
        expected = [
            runs_to_text([runs[seed] for seed in seeds], "csv")
            for seeds in orders
        ]
        errors = []

        def serve(offset):
            try:
                for turn in range(40):
                    index = (offset + turn) % len(ids)
                    text = daemon.results(ids[index], "csv")["text"]
                    if text != expected[index]:
                        errors.append(f"wrong text for {orders[index]}")
            except Exception as exc:  # reported by the main thread
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=serve, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(daemon._rows) <= 2

    def test_a_cleared_store_is_incomplete_after_serving(self, tmp_path):
        daemon, _ = self._served(tmp_path)
        status = daemon.submit(_spec(seeds=self.SEEDS))
        daemon.results(status["id"], "csv")
        daemon.cache.clear()
        with pytest.raises(ServiceError) as err:
            daemon.results(status["id"], "csv")
        assert err.value.code == "incomplete"


def _end_seen_with_terminal_state(batch):
    """A terminal state may only be reported with its end event."""
    kinds = [record.get("event") for record in batch["events"]]
    return batch["state"] not in TERMINAL or "submission_end" in kinds


class TestFollowStreamOrdering:
    """``events`` never reports a terminal state without ``submission_end``.

    The writer has two steps (emit the end event, publish the state) and
    the reader two reads (state, records).  Each test forces the
    interleaving that loses the event when one side has the old order.
    """

    def _running(self, tmp_path):
        daemon = _daemon(tmp_path)  # workers never started
        status = daemon.submit(_spec())
        submission = daemon._next_submission()
        assert submission.id == status["id"] and submission.state == RUNNING
        return daemon, submission

    def test_end_event_lands_before_the_terminal_state(
        self, tmp_path, monkeypatch
    ):
        daemon, submission = self._running(tmp_path)
        batches = []
        real_emit = EventLog.emit

        def emit(log, event, **fields):
            if event == "submission_end":
                batches.append(daemon.events(submission.id))
            real_emit(log, event, **fields)

        monkeypatch.setattr(EventLog, "emit", emit)
        daemon._execute(submission)
        batches.append(daemon.events(submission.id))
        assert [b["state"] for b in batches] == [RUNNING, DONE]
        assert all(_end_seen_with_terminal_state(b) for b in batches)

    def test_state_is_read_before_the_records(self, tmp_path, monkeypatch):
        daemon, submission = self._running(tmp_path)
        real_read = _read_jsonl
        finish = [submission]

        def read_then_finish(path):
            records = real_read(path)
            while finish:  # the writer completes between the two reads
                daemon._execute(finish.pop())
            return records

        monkeypatch.setattr(
            "repro.service.daemon._read_jsonl", read_then_finish)
        batch = daemon.events(submission.id)
        assert _end_seen_with_terminal_state(batch)
        assert daemon.status(submission.id)["state"] == DONE
        assert _end_seen_with_terminal_state(daemon.events(submission.id))


@contextlib.contextmanager
def _serving(tmp_path):
    """A daemon behind a socket server in a thread, plus a client.

    On exit the client is closed and the server and daemon stopped, so
    no handler thread or connection outlives the test.
    """
    daemon = _daemon(tmp_path)
    server = ServiceServer(daemon, socket_path=tmp_path / "svc.sock")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(socket_path=tmp_path / "svc.sock")
    try:
        for _ in range(100):
            try:
                client.ping()
                break
            except ServiceError:
                threading.Event().wait(0.05)
        yield daemon, server, client
    finally:
        client.close()
        server.request_stop()
        daemon.stop(timeout=10)
        thread.join(timeout=10)


def _raw_connection(path):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(30)
    conn.connect(str(path))
    return conn


def _no_connections_left(server):
    for _ in range(200):
        with server._conns_lock:
            if not server._conns:
                return True
        threading.Event().wait(0.01)
    return False


class TestSocketTransport:
    def test_server_needs_exactly_one_transport(self, tmp_path):
        daemon = _daemon(tmp_path)
        with pytest.raises(UsageError):
            ServiceServer(daemon)
        with pytest.raises(UsageError):
            ServiceServer(daemon, socket_path=tmp_path / "s", port=0)
        with pytest.raises(UsageError):
            ServiceClient()

    def test_concurrent_clients_share_one_simulation(self, tmp_path):
        results = [None, None]

        def _client(slot):
            with ServiceClient(socket_path=tmp_path / "svc.sock") as client:
                submitted = client.submit(_spec())
                final = client.wait_done(submitted["id"], timeout=300)
                assert final["state"] == DONE
                results[slot] = (
                    submitted, client.results(submitted["id"])["text"])

        with _serving(tmp_path) as (daemon, _, _):
            clients = [
                threading.Thread(target=_client, args=(slot,))
                for slot in (0, 1)
            ]
            for worker in clients:
                worker.start()
            for worker in clients:
                worker.join(timeout=300)
            assert all(entry is not None for entry in results)
            (first, text_a), (second, text_b) = results
            assert first["id"] == second["id"]
            # One submit created the submission, the other coalesced.
            assert {first["coalesced"], second["coalesced"]} == {True, False}
            assert text_a == text_b
            submission = daemon._get(first["id"])
            kinds = _event_kinds(submission)
            assert kinds.count("submission_start") == 1
            assert kinds.count("job_finish") == len(submission.keys)

    def test_event_stream_follows_to_completion(self, tmp_path):
        with _serving(tmp_path) as (_, _, client):
            submitted = client.submit(_spec())
            messages = list(client.stream_events(submitted["id"]))
        assert messages, "follow stream yielded nothing"
        final = messages[-1]
        assert final.get("done") is True
        assert final["state"] in TERMINAL
        kinds = [
            message["event"]["event"]
            for message in messages if "event" in message
        ]
        assert "submission_start" in kinds and "submission_end" in kinds

    def test_follow_stream_ends_its_connection(self, tmp_path):
        with _serving(tmp_path) as (_, server, client):
            submitted = client.submit(_spec())
            client.wait_done(submitted["id"], timeout=300, poll=0.01)
            with _raw_connection(tmp_path / "svc.sock") as conn:
                conn.sendall(encode_line({
                    "op": "events", "id": submitted["id"], "follow": True}))
                lines = conn.makefile("rb").readlines()
            assert decode_line(lines[-1])["done"] is True
            assert len(lines) > 1
            client.close()
            assert _no_connections_left(server)

    def test_one_connection_carries_many_exchanges(self, tmp_path):
        with _serving(tmp_path) as (_, _, _):
            with _raw_connection(tmp_path / "svc.sock") as conn:
                conn.sendall(
                    encode_line({"op": "ping"})
                    + encode_line({"op": "status", "id": "feedface"}))
                reader = conn.makefile("rb")
                first = decode_line(reader.readline())
                second = decode_line(reader.readline())
        assert first["ok"] is True and "protocol" in first
        assert second["ok"] is False
        assert second["error"]["code"] == "unknown-job"

    def test_one_exchange_clients_are_still_served(self, tmp_path):
        with _serving(tmp_path) as (_, server, client):
            client.close()
            with _raw_connection(tmp_path / "svc.sock") as conn:
                conn.sendall(encode_line({"op": "ping"}))
                response = decode_line(conn.makefile("rb").readline())
            assert response["ok"] is True
            # Closing after one exchange ends the handler too.
            assert _no_connections_left(server)

    def test_client_reconnects_once_after_a_server_restart(self, tmp_path):
        with ServiceClient(socket_path=tmp_path / "svc.sock") as client:
            connects = []
            real_connect = client._connect

            def counted_connect():
                connects.append(1)
                return real_connect()

            client._connect = counted_connect
            with _serving(tmp_path):
                assert client.ping()["ok"] and client.ping()["ok"]
                assert len(connects) == 1
            # Same socket path, new server: the kept connection is dead.
            with _serving(tmp_path):
                assert client.ping()["ok"]
                assert len(connects) == 2
            with pytest.raises(ServiceError) as err:
                client.ping()  # nothing listens: the fresh connect fails
            assert err.value.code == "internal"

    def test_threads_sharing_a_client_get_their_own_answers(self, tmp_path):
        threads, calls = 6, 40
        answers = [[] for _ in range(threads)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _serving(tmp_path) as (_, _, client):
                ids = [
                    client.submit(_spec(seeds=[seed]))["id"]
                    for seed in range(1, threads + 1)
                ]

                def _poll(slot):
                    for _ in range(calls):
                        answers[slot].append(client.status(ids[slot])["id"])

                pollers = [
                    threading.Thread(target=_poll, args=(slot,))
                    for slot in range(threads)
                ]
                for poller in pollers:
                    poller.start()
                for poller in pollers:
                    poller.join(timeout=60)
                assert not any(poller.is_alive() for poller in pollers)
        finally:
            sys.setswitchinterval(switch)
        assert answers == [[sub_id] * calls for sub_id in ids]

    def test_tcp_loopback_transport(self, tmp_path):
        daemon = _daemon(tmp_path)
        server = ServiceServer(daemon, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient(port=server.port) as client:
            for _ in range(100):
                try:
                    assert client.ping()["protocol"] >= 1
                    break
                except ServiceError:
                    threading.Event().wait(0.05)
            submitted = client.submit(_spec())
            final = client.wait_done(submitted["id"], timeout=300)
            assert final["state"] == DONE
        server.request_stop()
        daemon.stop(timeout=10)
        thread.join(timeout=10)

    def test_typed_errors_cross_the_wire(self, tmp_path):
        with _serving(tmp_path) as (_, _, client):
            with pytest.raises(ServiceError) as err:
                client.status("feedfacedeadbeefcafe0123")
            assert err.value.code == "unknown-job"
            with pytest.raises(ServiceError) as err:
                client.submit({"sweep": {"scale": -1}})
            assert err.value.code == "bad-request"
