"""The long-lived simulation daemon behind ``repro serve``.

:class:`ReproDaemon` turns the batch/campaign substrate into a job
service: clients submit sweep specs, get a content-addressed submission
id back, poll status or read the submission's event log, and fetch
merged results that are byte-identical to running the same sweep locally
(both sides render through :func:`repro.core.export.runs_to_text`).

Design points, in the order they matter:

* **Coalescing.**  A submission's id is a hash of its unique job keys
  (:func:`~repro.service.protocol.submission_id`).  While a submission
  is queued or running, an identical submit from any client returns the
  *same* id instead of enqueueing a second copy — many concurrent
  clients requesting the paper's full design space cost exactly one
  simulation pass.  A re-submit after completion also returns the same
  id; its results are served instantly from the store.  A done
  submission whose stored results vanished is re-attempted instead.
  One presence pass decides the submit and counts its payload's
  ``done``.
* **Cache hits finish at submit.**  A new submission whose every job is
  already stored needs no simulation: :meth:`submit` marks it done
  inside its locked presence check and appends one usage delta to the
  store, with no batch, no store read and no event log; only
  submissions with work to do queue.  An entry that vanishes or fails
  to unpickle after the check makes ``results`` answer ``incomplete``,
  and a resubmit re-simulates it.
* **Bounded registry.**  The daemon remembers at most
  :data:`FINISHED_KEPT` finished submissions and forgets the least
  recently finished first, so its memory does not grow with the work it
  has served; a forgotten submission's event log is deleted too.  Queued and running submissions are never forgotten.  Ids
  are content-addressed, so a resubmit of a forgotten sweep finishes at
  submit under the same id.
* **Rendered-row memo.**  A job key is a content hash, so a key's
  export row cannot change while its store entry is unchanged.
  ``results`` keeps each served key's rendered
  :class:`~repro.core.export.Fragment` per format with the entry's
  :class:`~repro.runner.cache.EntryId`; a later ``results`` stats the
  entry and reuses the fragment while the id matches, refreshing the
  entry's LRU recency as a store read would.  A missing entry still
  answers ``incomplete``, and a changed one (rewritten, truncated,
  replaced) is read and rendered afresh, so the memo never answers for
  an entry it has not seen.  It keeps the :data:`RESULTS_KEPT` most
  recently served keys.
* **Backpressure.**  The submission queue is bounded
  (``queue_depth``); a submit that would overflow it is rejected with
  the typed ``queue-full`` error rather than queued into unbounded
  memory.  An all-stored submission takes no queue slot, so a full
  queue never refuses it.  Clients back off and retry — the daemon never does silent
  load shedding.
* **Worker pool.**  ``workers`` daemon threads drain the queue; each
  executes its submission through a :class:`~repro.runner.BatchRunner`
  (process-pool fan-out, bounded retry, shared-store writes) in chunks,
  checking the cancel flag between chunks so ``cancel`` takes effect
  mid-submission without killing workers.
* **Done-authority.**  Results live in the daemon's shared
  :class:`~repro.runner.ResultCache`; the store's eviction guard
  (``protect_keys``) covers every remembered submission's keys,
  mirroring the campaign-layer invariant that store presence is the
  done-authority.
* **Graceful drain.**  :meth:`drain` stops intake (submits fail with
  ``draining``) while queued and running submissions finish;
  :meth:`stop` drains, waits for the queue to empty and joins the
  workers.  ``repro serve`` wires SIGTERM/SIGINT to exactly this path.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from pathlib import Path
from typing import Any

from repro.core.export import Fragment, run_fragment, runs_to_text
from repro.errors import RunnerError
from repro.runner.cache import EntryId, ResultCache, _read_jsonl
from repro.runner.events import EventLog
from repro.runner.job import Job
from repro.runner.pool import DEFAULT_RETRIES, BatchRunner
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    build_jobs,
    check_spec_types,
    submission_id,
)

#: Default bound on queued (not yet running) submissions.
DEFAULT_QUEUE_DEPTH = 16

#: Finished submissions the daemon remembers; older ones are forgotten.
FINISHED_KEPT = 1024

#: Job keys whose rendered export rows ``results`` keeps, least recently
#: served forgotten first: under 1 KB a key per format, so under 1 MB
#: for CSV rows.
RESULTS_KEPT = 1024

#: Directory names under the daemon's state directory.
STORE_DIR = "store"
EVENTS_DIR = "events"

#: Submission lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a submission never leaves.
TERMINAL = (DONE, FAILED, CANCELLED)


@dataclasses.dataclass
class Submission:
    """One coalesced unit of client demand: a unique-job work list."""

    id: str
    jobs: list[Job]
    keys: list[str]
    state: str = QUEUED
    error: str = ""
    #: How many submits coalesced onto this submission.
    clients: int = 1
    created: float = 0.0
    finished: float = 0.0
    events_path: Path | None = None
    cancel_requested: bool = False

    def snapshot(self, done: int) -> dict[str, Any]:
        """Status payload: lifecycle state plus ``done`` stored keys."""
        return {
            "id": self.id,
            "state": self.state,
            "total": len(self.keys),
            "done": done,
            "clients": self.clients,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }


class ReproDaemon:
    """Coalescing job service over the batch-runner substrate."""

    def __init__(
        self,
        state_dir: str | Path,
        cache: ResultCache | None = None,
        workers: int = 1,
        jobs: int | None = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        if workers < 1:
            raise ServiceError("bad-request", "daemon needs >= 1 worker")
        if queue_depth < 1:
            raise ServiceError("bad-request", "queue depth must be >= 1")
        self.state_dir = Path(state_dir).expanduser()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / EVENTS_DIR).mkdir(exist_ok=True)
        if cache is None:
            cache = ResultCache(self.state_dir / STORE_DIR)
        self.cache = cache
        # Live submissions' keys are never evicted out from under a
        # client: store presence is the service's done-authority too.
        if self.cache.protect_keys is None:
            self.cache.protect_keys = self._live_keys
        self.workers = workers
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.retries = retries
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: collections.deque[Submission] = collections.deque()
        self._submissions: dict[str, Submission] = {}
        #: Ids of finished submissions, least recently finished first.
        self._finished: dict[str, None] = {}
        #: Served keys' store-entry ids and export fragments by format,
        #: least recently served first.
        self._rows: dict[str, tuple[EntryId, dict[str, Fragment]]] = {}
        self._threads: list[threading.Thread] = []
        self._draining = False
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()

    def drain(self) -> None:
        """Stop intake; queued and running submissions keep going."""
        with self._wake:
            self._draining = True
            self._wake.notify_all()

    def stop(self, timeout: float | None = None) -> bool:
        """Drain, let the queue empty, and join the workers.

        Returns True when every worker exited within ``timeout``.  A
        submission served at submit never outlives its ``submit`` call,
        so the workers are all there is to wait for.
        """
        self.drain()
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        return not any(thread.is_alive() for thread in self._threads)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no submission is queued or running."""
        deadline = (
            None if timeout is None
            else time.monotonic() + timeout  # noqa: REP001 - host scheduling, not simulated time
        )
        with self._wake:
            while self._queue or any(
                sub.state == RUNNING for sub in self._submissions.values()
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()  # noqa: REP001 - host scheduling, not simulated time
                    if remaining <= 0:
                        return False
                self._wake.wait(remaining if remaining is not None else 0.5)
        return True

    def _live_keys(self) -> set[str]:
        """Union of every remembered submission's job keys (evict guard)."""
        with self._lock:
            keys: set[str] = set()
            for submission in self._submissions.values():
                keys.update(submission.keys)
            return keys

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Register a submission spec; coalesce onto an identical one.

        Job construction happens outside the lock (it hashes configs),
        the queue/coalesce decision inside it.  A submission whose jobs
        are all stored is done inside that decision; any other queues
        for the workers.
        """
        check_spec_types(spec)
        jobs = build_jobs(spec)
        unique: dict[str, Job] = {}
        for job in jobs:
            unique.setdefault(job.key(), job)
        keys = list(unique)
        sub_id = submission_id(keys)
        with self._wake:
            existing = self._submissions.get(sub_id)
            done = self._count_stored(keys)
            stored = done == len(keys)
            if existing is not None and (
                existing.state in (QUEUED, RUNNING)
                or existing.state == DONE and stored
            ):
                # One simulation pass serves every identical client.
                existing.clients += 1
                payload = existing.snapshot(done)
                payload.update({"ok": True, "coalesced": True})
                return payload
            if self._draining:
                raise ServiceError(
                    "draining", "daemon is draining; not accepting submissions"
                )
            if not stored and len(self._queue) >= self.queue_depth:
                raise ServiceError(
                    "queue-full",
                    f"submission queue is full ({self.queue_depth} deep); "
                    "retry after in-flight work completes",
                )
            if existing is not None:
                # Failed, cancelled, or done with results that vanished
                # from the store: re-attempt under the same id with a
                # fresh lifecycle.
                submission = existing
                submission.error = ""
                submission.cancel_requested = False
                submission.clients += 1
                self._finished.pop(sub_id, None)
            else:
                submission = Submission(
                    id=sub_id,
                    jobs=list(unique.values()),
                    keys=keys,
                    created=time.time(),  # noqa: REP001 - service bookkeeping, not simulated time
                    events_path=self.state_dir / EVENTS_DIR / f"{sub_id}.jsonl",
                )
                self._submissions[sub_id] = submission
            if stored:
                # Nothing to simulate, so no batch and no event log; a
                # re-attempt drops the log of the lifecycle it replaces.
                if existing is not None and existing.events_path is not None:
                    existing.events_path.unlink(missing_ok=True)
                submission.state = DONE
                submission.finished = time.time()  # noqa: REP001 - service bookkeeping, not simulated time
                self._finish(submission)
            else:
                submission.state = QUEUED
                self._queue.append(submission)
                self._wake.notify_all()
        if stored:
            self.cache.record_usage(hits=len(keys))
        payload = submission.snapshot(done)
        payload.update({"ok": True, "coalesced": False})
        return payload

    def _count_stored(self, keys: list[str]) -> int:
        """How many of ``keys`` have a store entry (one ``stat`` each)."""
        return sum(1 for key in keys if self.cache.contains(key))

    def _get(self, sub_id: Any) -> Submission:
        if not isinstance(sub_id, str) or not sub_id:
            raise ServiceError("bad-request", "missing submission id")
        with self._lock:
            submission = self._submissions.get(sub_id)
        if submission is None:
            raise ServiceError(
                "unknown-job",
                f"no submission {sub_id!r} (the daemon forgets old finished "
                "submissions; resubmit the sweep to get its stored results "
                "at once)",
            )
        return submission

    def status(self, sub_id: Any) -> dict[str, Any]:
        submission = self._get(sub_id)
        payload = submission.snapshot(self._count_stored(submission.keys))
        payload["ok"] = True
        return payload

    def events(self, sub_id: Any, since: int = 0) -> dict[str, Any]:
        """Event records of one submission from offset ``since``."""
        submission = self._get(sub_id)
        if not isinstance(since, int) or since < 0:
            raise ServiceError("bad-request", "'since' must be an int >= 0")
        # State first: ``submission_end`` is written before a terminal
        # state is published, so a terminal state read here guarantees
        # the records read next include it.  A submission done at submit
        # has no log, so its records are empty.
        state = submission.state
        records: list[dict[str, Any]] = []
        if submission.events_path is not None:
            records = _read_jsonl(submission.events_path)
        return {
            "ok": True,
            "id": submission.id,
            "state": state,
            "events": records[since:],
            "next": len(records),
        }

    def results(self, sub_id: Any, fmt: str = "csv") -> dict[str, Any]:
        """Merged results of a completed submission, as export text."""
        submission = self._get(sub_id)
        if submission.state != DONE:
            raise ServiceError(
                "not-done",
                f"submission {submission.id} is {submission.state}; "
                "results need state 'done'"
                + (f" ({submission.error})" if submission.error else ""),
            )
        rows: list[Fragment] = []
        missing = 0
        for key in submission.keys:
            row = self._row(key, fmt)
            if row is None:
                missing += 1
            else:
                rows.append(row)
        if missing:
            raise ServiceError(
                "incomplete",
                f"incomplete: {missing} of {len(submission.keys)} stored "
                "result(s) are missing or unreadable; resubmit to "
                "re-simulate",
            )
        return {
            "ok": True,
            "id": submission.id,
            "format": fmt,
            "text": runs_to_text(rows, fmt),
        }

    def _row(self, key: str, fmt: str) -> Fragment | None:
        """``key``'s export fragment in ``fmt``; None when not readable.

        One ``stat`` and one ``utime`` while the entry is the one the
        memo saw; otherwise a store read and a render, remembered.
        """
        seen = self.cache.entry_id(key)
        if seen is None:
            return None
        with self._lock:
            memo = self._rows.get(key)
        formats = memo[1] if memo is not None and memo[0] == seen else {}
        row = formats.get(fmt)
        if row is None:
            metrics = self.cache.get(key)
            if metrics is None:
                return None  # unreadable: get discarded it
            row = run_fragment(metrics, fmt)
            formats = {**formats, fmt: row}
        stamped = self.cache.touch(key, seen)
        with self._lock:
            self._rows.pop(key, None)
            self._rows[key] = (stamped, formats)
            while len(self._rows) > RESULTS_KEPT:
                del self._rows[next(iter(self._rows))]
        return row

    def cancel(self, sub_id: Any) -> dict[str, Any]:
        """Cancel a submission; running work stops at a chunk boundary."""
        submission = self._get(sub_id)
        with self._wake:
            if submission.state == QUEUED:
                try:
                    self._queue.remove(submission)
                except ValueError:
                    pass  # a worker grabbed it between checks
                else:
                    submission.state = CANCELLED
                    self._finish(submission)
                    self._wake.notify_all()
            if submission.state in (QUEUED, RUNNING):
                submission.cancel_requested = True
        payload = submission.snapshot(self._count_stored(submission.keys))
        payload["ok"] = True
        return payload

    def ping(self) -> dict[str, Any]:
        with self._lock:
            states = sorted(
                sub.state for sub in self._submissions.values()
            )
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "queued": states.count(QUEUED),
            "running": states.count(RUNNING),
            "submissions": len(states),
        }

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one decoded request to the matching operation."""
        op = request.get("op")
        if op == "submit":
            return self.submit(request.get("spec", {}))
        if op == "status":
            return self.status(request.get("id"))
        if op == "events":
            return self.events(request.get("id"), request.get("since", 0))
        if op == "results":
            return self.results(request.get("id"), request.get("format", "csv"))
        if op == "cancel":
            return self.cancel(request.get("id"))
        if op == "ping":
            return self.ping()
        raise ServiceError("bad-request", f"unknown operation {op!r}")

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _next_submission(self) -> Submission | None:
        """Block until a submission is available or the daemon stops."""
        with self._wake:
            while True:
                if self._queue:
                    submission = self._queue.popleft()
                    submission.state = RUNNING
                    return submission
                if self._stopping:
                    return None
                self._wake.wait(0.5)

    def _worker_loop(self) -> None:
        while True:
            submission = self._next_submission()
            if submission is None:
                return
            self._execute(submission)

    def _finish(self, submission: Submission) -> None:
        """Remember a now-terminal submission; forget the oldest (locked).

        Only finished ids are ever forgotten, so a queued or running
        submission stays reachable however many finish around it.  A
        re-attempt takes its id out of ``_finished`` first, so each
        finish lands last.  A forgotten id's event log goes with it, so
        the events directory stays bounded and a resubmit starts a fresh
        log.
        """
        self._finished[submission.id] = None
        while len(self._finished) > FINISHED_KEPT:
            oldest = next(iter(self._finished))
            del self._finished[oldest]
            forgotten = self._submissions.pop(oldest)
            if forgotten.events_path is not None:
                forgotten.events_path.unlink(missing_ok=True)

    def _chunks(self, submission: Submission) -> list[list[Job]]:
        """Cancel-granularity slices: ``cancel`` lands between them."""
        width = max(1, self.jobs or (len(submission.jobs)))
        return [
            submission.jobs[start:start + width]
            for start in range(0, len(submission.jobs), width)
        ]

    def _execute(self, submission: Submission) -> None:
        """Run one submission through the batch runner, chunk by chunk."""
        events = (
            EventLog(submission.events_path)
            if submission.events_path is not None else None
        )
        runner = BatchRunner(
            jobs=self.jobs,
            cache=self.cache,
            retries=self.retries,
            events=events,
        )
        if events is not None:
            events.emit(
                "submission_start", id=submission.id,
                units=len(submission.keys), clients=submission.clients,
            )
        error = ""
        cancelled = False
        try:
            for chunk in self._chunks(submission):
                if submission.cancel_requested:
                    cancelled = True
                    break
                try:
                    runner.run(chunk)
                except RunnerError as exc:
                    error = str(exc).splitlines()[0]
                    break
        except Exception as exc:  # worker threads must never die silently
            error = f"{type(exc).__name__}: {exc}"
        state = CANCELLED if cancelled else FAILED if error else DONE
        # The end event lands before the state is published: a reader
        # that sees a terminal state also sees the event.
        try:
            if events is not None:
                events.emit(
                    "submission_end", id=submission.id, state=state,
                    error=error,
                )
                events.close()
        finally:
            with self._wake:
                submission.state = state
                if state == FAILED:
                    submission.error = error
                submission.finished = time.time()  # noqa: REP001 - service bookkeeping, not simulated time
                self._finish(submission)
                self._wake.notify_all()


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "CANCELLED",
    "DONE",
    "FAILED",
    "FINISHED_KEPT",
    "QUEUED",
    "RESULTS_KEPT",
    "RUNNING",
    "TERMINAL",
    "ReproDaemon",
    "Submission",
]
