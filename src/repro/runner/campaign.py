"""Distributed, resumable sweep campaigns over a shared artifact store.

A *campaign* is a sweep (Section IV config labels x benchmarks x seeds,
or any list of :class:`~repro.runner.Job`\\ s) persisted on disk so that
independent worker processes — on one machine or many sharing a
filesystem — can execute it cooperatively, die, and resume without ever
re-simulating a completed unit.  Four on-disk pieces, all under one
campaign directory:

``manifest.json``
    The immutable work list, written once by :meth:`CampaignManifest.create`:
    one *work unit* per unique :meth:`Job.key` (content-addressed — the
    key covers config, kernel, seed, scale, cycle budget and code
    digest), with enough serialized job state to rebuild the ``Job`` in
    any process.  Keys are frozen at creation; workers refuse to run if
    the package's code digest has drifted since (results would land
    under different keys and the campaign could never converge).

``claims/<key>.claim``
    The mutual-exclusion protocol.  A worker claims a unit by creating
    its claim file with ``O_CREAT | O_EXCL`` — exactly one concurrent
    creator wins.  Claim files carry the worker name and pid, and their
    mtime is the heartbeat: a claim older than ``stale_after`` seconds
    is presumed dead and may be taken over (rename to a tombstone — only
    one renamer wins — then a fresh ``O_EXCL`` create).

``ledger.jsonl``
    The append-only completion ledger: one ``O_APPEND`` record per unit
    outcome (``done`` / ``failed``, worker, wall seconds).  The ledger
    is the campaign's *history*; the authoritative "is this unit done?"
    signal is the shared :class:`~repro.runner.ResultCache` itself — an
    entry under the unit's frozen key *is* the result, so a worker
    killed between ``cache.put`` and its ledger append loses nothing.

``events/<worker>.jsonl``
    One :class:`~repro.runner.EventLog` per worker (job/batch lifecycle,
    wall times, pool utilization), merged by :func:`campaign_status`.

Workers (:class:`CampaignWorker`) loop: scan the manifest for units that
are neither completed nor claimed, claim up to ``jobs`` of them, execute
the batch through a :class:`~repro.runner.BatchRunner` (process-pool
fan-out, bounded retry, shared-cache writes), append ledger records and
release the claims.  With ``wait=True`` a worker that finds nothing
claimable but sees unfinished units (another worker holds them) polls
until the campaign settles, so every worker exits with the campaign
complete — and any of them can export the merged results.

Determinism: results are gathered in manifest order from the shared
store, so a campaign executed by eight racing workers exports byte-
identical CSV/JSON to the same sweep run serially.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import threading
import time
from collections.abc import Callable, Collection
from pathlib import Path
from typing import Any

from repro.core.metrics import RunMetrics
from repro.errors import RunnerError, UsageError
from repro.runner.cache import ResultCache, _append_jsonl, _read_jsonl
from repro.runner.events import EventLog
from repro.runner.job import Job, code_version
from repro.runner.pool import DEFAULT_RETRIES, BatchRunner
from repro.sim.config import config_from_dict

#: Bumped when the manifest layout changes.
MANIFEST_SCHEMA = 1

MANIFEST_NAME = "manifest.json"
LEDGER_NAME = "ledger.jsonl"
CLAIMS_DIR = "claims"
EVENTS_DIR = "events"
#: Default shared store location inside the campaign directory.
STORE_DIR = "store"

#: Seconds without a heartbeat before a claim may be taken over.
DEFAULT_STALE_AFTER = 600.0

#: Seconds between polls while waiting on units claimed by other workers.
DEFAULT_POLL = 0.5


def _campaign_dir(directory: str | Path) -> Path:
    return Path(directory).expanduser()


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One claimable unit: a job plus its frozen content key."""

    key: str
    job: Job

    def to_payload(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "kernel": self.job.kernel_name,
            "seed": self.job.seed,
            "iteration_scale": self.job.iteration_scale,
            "max_cycles": self.job.max_cycles,
            "config": dataclasses.asdict(self.job.config),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "WorkUnit":
        try:
            job = Job(
                config_from_dict(payload["config"]),
                payload["kernel"],
                seed=payload["seed"],
                iteration_scale=payload["iteration_scale"],
                max_cycles=payload["max_cycles"],
            )
            key = payload["key"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed manifest work unit: {exc}") from exc
        if not isinstance(key, str) or not key:
            raise UsageError("malformed manifest work unit: missing key")
        return cls(key=key, job=job)


class CampaignManifest:
    """The persistent work list of one campaign."""

    def __init__(
        self, directory: Path, units: tuple[WorkUnit, ...], code: str
    ) -> None:
        self.directory = directory
        self.units = units
        #: ``code_version()`` at manifest creation (keys are frozen to it).
        self.code = code

    @staticmethod
    def path_for(directory: str | Path) -> Path:
        return _campaign_dir(directory) / MANIFEST_NAME

    @classmethod
    def create(
        cls, directory: str | Path, jobs: list[Job] | tuple[Job, ...]
    ) -> "CampaignManifest":
        """Write a new manifest from ``jobs`` (deduplicated by key).

        Refuses to overwrite an existing manifest — a campaign's work
        list is immutable; resume instead of re-creating.
        """
        if not jobs:
            raise UsageError("a campaign needs at least one job")
        base = _campaign_dir(directory)
        path = cls.path_for(base)
        if path.exists():
            raise UsageError(
                f"campaign manifest already exists at {path}; "
                "use resume (or a fresh directory)"
            )
        units: list[WorkUnit] = []
        seen: set[str] = set()
        for job in jobs:
            key = job.key()
            if key not in seen:
                seen.add(key)
                units.append(WorkUnit(key=key, job=job))
        manifest = cls(base, tuple(units), code_version())
        base.mkdir(parents=True, exist_ok=True)
        (base / CLAIMS_DIR).mkdir(exist_ok=True)
        (base / EVENTS_DIR).mkdir(exist_ok=True)
        payload = {
            "schema": MANIFEST_SCHEMA,
            "code": manifest.code,
            "units": [unit.to_payload() for unit in manifest.units],
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        try:
            # link (not rename): fails with EEXIST if another creator
            # won the race, so exactly one manifest ever lands.
            os.link(tmp, path)
        except FileExistsError:
            raise UsageError(
                f"campaign manifest already exists at {path}; "
                "use resume (or a fresh directory)"
            ) from None
        finally:
            tmp.unlink(missing_ok=True)
        return manifest

    @classmethod
    def load(cls, directory: str | Path) -> "CampaignManifest":
        base = _campaign_dir(directory)
        path = cls.path_for(base)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UsageError(
                f"no campaign manifest at {path}; create one with "
                "`repro campaign run`"
            ) from None
        except (OSError, ValueError) as exc:
            raise UsageError(f"unreadable campaign manifest {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
            raise UsageError(
                f"campaign manifest {path} has unsupported schema "
                f"{payload.get('schema') if isinstance(payload, dict) else '?'!r}"
            )
        units = tuple(
            WorkUnit.from_payload(raw) for raw in payload.get("units", [])
        )
        if not units:
            raise UsageError(f"campaign manifest {path} lists no work units")
        code = payload.get("code", "")
        return cls(base, units, code if isinstance(code, str) else "")

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        return [unit.key for unit in self.units]

    def check_code_drift(self) -> None:
        """Refuse to execute against drifted simulator code.

        Unit keys were frozen at creation; if the package digest has
        changed since, fresh executions would land under *different*
        keys and the campaign could never converge.  Status/results
        remain readable — only execution is gated.
        """
        current = code_version()
        if self.code and self.code != current:
            raise UsageError(
                "simulator code changed since this campaign was created "
                f"(manifest digest {self.code}, current {current}); "
                "finish it with the original code or start a new campaign"
            )


# ----------------------------------------------------------------------
# claim files
# ----------------------------------------------------------------------

def _claim_path(directory: str | Path, key: str) -> Path:
    return _campaign_dir(directory) / CLAIMS_DIR / f"{key}.claim"


def try_claim(
    directory: str | Path,
    key: str,
    worker: str,
    stale_after: float = DEFAULT_STALE_AFTER,
) -> bool:
    """Attempt to claim ``key``; True iff this worker now holds it.

    ``O_CREAT | O_EXCL`` guarantees a single winner among concurrent
    claimers.  An existing claim whose mtime (heartbeat) is older than
    ``stale_after`` seconds is taken over: rename it to a pid-suffixed
    tombstone (the filesystem arbitrates — exactly one renamer
    succeeds), delete the tombstone, then race a fresh ``O_EXCL``
    create like everyone else.
    """
    path = _claim_path(directory, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(
        {"worker": worker, "pid": os.getpid(), "ts": round(time.time(), 3)},  # noqa: REP001 - claim bookkeeping, not simulated time
        separators=(",", ":"),
    ).encode("utf-8")
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            if attempt:
                return False
            try:
                age = time.time() - path.stat().st_mtime  # noqa: REP001 - claim bookkeeping, not simulated time
            except OSError:
                continue  # claim vanished: retry the O_EXCL create
            if age <= stale_after:
                return False
            tombstone = path.with_name(f"{path.name}.stale{os.getpid()}")
            try:
                os.rename(path, tombstone)
            except OSError:
                return False  # another taker won the rename
            try:
                tombstone.unlink()
            except OSError:
                pass
            continue  # stale claim cleared: retry the O_EXCL create
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return True
    return False


def release_claim(directory: str | Path, key: str) -> None:
    try:
        _claim_path(directory, key).unlink()
    except OSError:
        pass


def heartbeat_claims(directory: str | Path, keys: list[str]) -> None:
    """Refresh the heartbeat (mtime) of every held claim in ``keys``."""
    for key in keys:
        try:
            os.utime(_claim_path(directory, key))
        except OSError:
            pass


def read_claims(directory: str | Path) -> dict[str, dict[str, Any]]:
    """Current claim files: key -> {worker, pid, ts, age_s}."""
    claims_dir = _campaign_dir(directory) / CLAIMS_DIR
    out: dict[str, dict[str, Any]] = {}
    if not claims_dir.is_dir():
        return out
    for path in sorted(claims_dir.glob("*.claim")):
        info: dict[str, Any] = {}
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(raw, dict):
                info.update(raw)
        except (OSError, ValueError):
            pass
        try:
            info["age_s"] = round(time.time() - path.stat().st_mtime, 3)  # noqa: REP001 - claim bookkeeping, not simulated time
        except OSError:
            continue  # released between glob and stat
        out[path.name[: -len(".claim")]] = info
    return out


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------

def append_ledger(
    directory: str | Path, key: str, status: str, worker: str, **fields: Any
) -> None:
    """Append one completion record (single O_APPEND write)."""
    record: dict[str, Any] = {
        "key": key,
        "status": status,
        "worker": worker,
        "ts": round(time.time(), 3),  # noqa: REP001 - ledger bookkeeping, not simulated time
    }
    record.update(fields)
    try:
        _append_jsonl(_campaign_dir(directory) / LEDGER_NAME, record)
    except OSError:
        pass  # the ledger is history; the cache entry is the result


def read_ledger(directory: str | Path) -> list[dict[str, Any]]:
    return _read_jsonl(_campaign_dir(directory) / LEDGER_NAME)


def _failed_keys(directory: str | Path) -> set[str]:
    """Keys whose *latest* ledger record is a failure."""
    latest: dict[str, str] = {}
    for record in read_ledger(directory):
        key = record.get("key")
        status = record.get("status")
        if isinstance(key, str) and isinstance(status, str):
            latest[key] = status
    return {key for key, status in latest.items() if status == "failed"}


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------

def manifest_protection(
    directory: str | Path,
) -> Callable[[], Collection[str]]:
    """Eviction guard: the campaign's frozen work-unit keys.

    Store entry presence is the campaign's done-authority, so a
    size-bounded shared store must never LRU-evict an entry the ledger
    already counts as done — that would silently flip a completed unit
    back to pending.  The returned callable plugs into
    :class:`~repro.runner.ResultCache` ``protect_keys``; it resolves
    lazily (the store is often built before the manifest exists) and
    memoizes once loaded (the manifest is immutable after creation).
    """
    base = _campaign_dir(directory)
    cached: set[str] | None = None

    def protected() -> Collection[str]:
        nonlocal cached
        if cached is None:
            try:
                cached = set(CampaignManifest.load(base).keys())
            except UsageError:
                return ()  # no manifest yet: nothing to protect
        return cached

    return protected


def default_store(
    directory: str | Path,
    max_bytes: int | None = None,
    cache_dir: str | Path | None = None,
) -> ResultCache:
    """The campaign's shared artifact store (``<dir>/store``).

    ``cache_dir`` overrides the location (the CLI's ``--cache-dir``);
    either way the store's eviction is guarded by
    :func:`manifest_protection`, so completed units survive any
    ``max_bytes`` bound.
    """
    return ResultCache(
        Path(cache_dir).expanduser() if cache_dir
        else _campaign_dir(directory) / STORE_DIR,
        max_bytes=max_bytes,
        protect_keys=manifest_protection(directory),
    )


def _safe_worker_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or f"worker-{os.getpid()}"


@dataclasses.dataclass
class WorkerReport:
    """What one :meth:`CampaignWorker.run` invocation did."""

    executed: int = 0
    skipped_done: int = 0
    failed: int = 0
    rounds: int = 0


class CampaignWorker:
    """One cooperating executor of a persisted campaign."""

    def __init__(
        self,
        directory: str | Path,
        worker: str | None = None,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        stale_after: float = DEFAULT_STALE_AFTER,
        poll: float = DEFAULT_POLL,
        retries: int = DEFAULT_RETRIES,
        retry_failed: bool = False,
    ) -> None:
        self.directory = _campaign_dir(directory)
        self.manifest = CampaignManifest.load(self.directory)
        self.manifest.check_code_drift()
        self.worker = _safe_worker_name(worker or f"worker-{os.getpid()}")
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = cache if cache is not None else default_store(self.directory)
        self.stale_after = stale_after
        self.poll = poll
        self.retries = retries
        #: Retry units whose latest ledger record is a failure (fresh
        #: invocations only — within one run a failed unit stays failed).
        self.retry_failed = retry_failed
        events_dir = self.directory / EVENTS_DIR
        events_dir.mkdir(parents=True, exist_ok=True)
        self.events = EventLog(events_dir / f"{self.worker}.jsonl")
        #: Claim files this worker currently holds (released on any exit
        #: path, including SIGINT/SIGTERM, so interrupted work is handed
        #: back immediately instead of after ``stale_after``).
        self._held: set[str] = set()

    # ------------------------------------------------------------------
    def _claim_round(self, skip: set[str]) -> list[WorkUnit]:
        """Claim up to ``self.jobs`` unclaimed, incomplete units."""
        claimed: list[WorkUnit] = []
        for unit in self.manifest.units:
            if len(claimed) >= self.jobs:
                break
            if unit.key in skip or self.cache.contains(unit.key):
                continue
            if try_claim(
                self.directory, unit.key, self.worker, self.stale_after
            ):
                self._held.add(unit.key)
                # The claim raced the completion check: someone may have
                # finished the unit between our contains() and the claim.
                if self.cache.contains(unit.key):
                    self._release(unit.key)
                    continue
                claimed.append(unit)
        return claimed

    def _release(self, key: str) -> None:
        release_claim(self.directory, key)
        self._held.discard(key)

    def _release_held(self) -> None:
        """Hand every held claim back (interrupt/exit path)."""
        for key in sorted(self._held):
            release_claim(self.directory, key)
        self._held.clear()

    def _heartbeat_interval(self) -> float:
        """Refresh well inside ``stale_after`` but never busy-spin."""
        return min(max(self.stale_after / 4.0, 0.05), 30.0)

    def _run_claimed(
        self, claimed: list[WorkUnit], report: WorkerReport
    ) -> set[str]:
        """Execute claimed units as one batch; returns failed keys.

        Heartbeats run from a background thread for the whole batch
        duration: a single simulation longer than ``stale_after`` must
        not let the claim go stale mid-flight (another worker would take
        it over and duplicate the work).
        """
        keys = [unit.key for unit in claimed]
        heartbeat_claims(self.directory, keys)
        runner = BatchRunner(
            jobs=min(self.jobs, len(claimed)),
            cache=self.cache,
            retries=self.retries,
            events=self.events,
        )
        stop = threading.Event()

        def _beat() -> None:
            while not stop.wait(self._heartbeat_interval()):
                heartbeat_claims(self.directory, keys)

        beater = threading.Thread(
            target=_beat, name=f"heartbeat-{self.worker}", daemon=True
        )
        beater.start()
        error_text = ""
        try:
            runner.run([unit.job for unit in claimed])
        except RunnerError as exc:
            error_text = str(exc)
        finally:
            stop.set()
            beater.join()
        failed: set[str] = set()
        for unit in claimed:
            if self.cache.contains(unit.key):
                report.executed += 1
                append_ledger(
                    self.directory, unit.key, "done", self.worker,
                    job=unit.job.describe(),
                )
            else:
                failed.add(unit.key)
                report.failed += 1
                append_ledger(
                    self.directory, unit.key, "failed", self.worker,
                    job=unit.job.describe(),
                    error=error_text.splitlines()[0] if error_text else "",
                )
            self._release(unit.key)
        return failed

    def run(self, wait: bool = True) -> WorkerReport:
        """Work the campaign until it settles (or nothing is claimable).

        With ``wait=True`` (default) the worker keeps polling while
        other workers hold claims on unfinished units — dead workers'
        claims go stale and get taken over — so returning means every
        unit is either done or failed.  With ``wait=False`` the worker
        returns as soon as it finds nothing to claim.

        Any exit — normal return, exception, SIGINT, SIGTERM — releases
        every claim this worker still holds, so an interrupted worker
        hands its units back immediately instead of leaving them locked
        until ``stale_after`` expires.  (A SIGKILL cannot be caught; the
        stale-takeover path remains the backstop for that.)
        """
        report = WorkerReport()
        previous_term: Any = None
        installed_term = False
        if threading.current_thread() is threading.main_thread():
            # SIGTERM default-kills without unwinding; converting it to
            # SystemExit lets the finally below release held claims.
            def _terminate(signum: int, frame: Any) -> None:
                raise SystemExit(128 + signum)  # noqa: REP003 - signal exit, not a library failure

            previous_term = signal.signal(signal.SIGTERM, _terminate)
            installed_term = True
        try:
            skip: set[str] = (
                set() if self.retry_failed else _failed_keys(self.directory)
            )
            self.events.emit(
                "campaign_worker_start", worker=self.worker,
                units=len(self.manifest.units), jobs=self.jobs,
            )
            while True:
                report.rounds += 1
                claimed = self._claim_round(skip)
                if claimed:
                    skip |= self._run_claimed(claimed, report)
                    continue
                if not self.retry_failed:
                    # Units another worker failed while we waited are
                    # resolved too — without this refresh we would poll
                    # them forever.
                    skip |= _failed_keys(self.directory)
                unresolved = [
                    unit.key for unit in self.manifest.units
                    if unit.key not in skip
                    and not self.cache.contains(unit.key)
                ]
                if not unresolved:
                    break
                if not wait:
                    break
                time.sleep(self.poll)
            report.skipped_done = sum(
                1 for unit in self.manifest.units
                if self.cache.contains(unit.key)
            ) - report.executed
            self.events.emit(
                "campaign_worker_end", worker=self.worker,
                executed=report.executed, failed=report.failed,
                rounds=report.rounds,
            )
        finally:
            self._release_held()
            self.events.close()
            if installed_term:
                signal.signal(signal.SIGTERM, previous_term)
        return report


# ----------------------------------------------------------------------
# status & results
# ----------------------------------------------------------------------

@dataclasses.dataclass
class CampaignStatus:
    """Merged view of a campaign directory."""

    total: int
    done: int
    failed: int
    claimed: int
    pending: int
    #: Per-worker event-log summaries, worker name -> summary dict.
    workers: dict[str, dict[str, Any]]
    claims: dict[str, dict[str, Any]]
    code_drift: bool

    @property
    def complete(self) -> bool:
        return self.done + self.failed >= self.total


def _worker_summaries(directory: Path) -> dict[str, dict[str, Any]]:
    """Fold every per-worker event log into one summary per worker."""
    events_dir = directory / EVENTS_DIR
    out: dict[str, dict[str, Any]] = {}
    if not events_dir.is_dir():
        return out
    for path in sorted(events_dir.glob("*.jsonl")):
        finished = retried = cache_hits = events = 0
        busy = 0.0
        for record in _read_jsonl(path):
            events += 1
            name = record.get("event")
            if name == "job_finish":
                finished += 1
                wall = record.get("wall_s")
                if isinstance(wall, (int, float)):
                    busy += float(wall)
            elif name == "job_retry":
                retried += 1
            elif name == "cache_hit":
                cache_hits += 1
        out[path.stem] = {
            "events": events,
            "finished": finished,
            "retried": retried,
            "cache_hits": cache_hits,
            "busy_s": round(busy, 3),
        }
    return out


def campaign_status(
    directory: str | Path, cache: ResultCache | None = None
) -> CampaignStatus:
    """Fold manifest, store, ledger, claims and event logs into a status."""
    base = _campaign_dir(directory)
    manifest = CampaignManifest.load(base)
    store = cache if cache is not None else default_store(base)
    failed = _failed_keys(base)
    claims = read_claims(base)
    done = claimed = pending = 0
    for unit in manifest.units:
        if store.contains(unit.key):
            done += 1
        elif unit.key in failed:
            continue
        elif unit.key in claims:
            claimed += 1
        else:
            pending += 1
    return CampaignStatus(
        total=len(manifest.units),
        done=done,
        failed=sum(1 for key in failed if not store.contains(key)),
        claimed=claimed,
        pending=pending,
        workers=_worker_summaries(base),
        claims=claims,
        code_drift=bool(manifest.code and manifest.code != code_version()),
    )


def render_status(status: CampaignStatus) -> str:
    """Human-readable campaign status block."""
    lines = [
        f"units: {status.total} total — {status.done} done, "
        f"{status.failed} failed, {status.claimed} claimed, "
        f"{status.pending} pending"
    ]
    if status.complete:
        lines.append("campaign complete" if not status.failed
                     else "campaign complete (with failures)")
    if status.code_drift:
        lines.append(
            "note: simulator code changed since the manifest was created; "
            "execution is locked to the original digest"
        )
    for worker, summary in status.workers.items():
        lines.append(
            f"  worker {worker}: {summary['finished']} finished, "
            f"{summary['cache_hits']} cache hits, "
            f"{summary['retried']} retried, busy {summary['busy_s']}s"
        )
    for key, claim in status.claims.items():
        holder = claim.get("worker", "?")
        lines.append(
            f"  claim {key[:12]}…: held by {holder} "
            f"(age {claim.get('age_s', '?')}s)"
        )
    return "\n".join(lines)


def campaign_results(
    directory: str | Path, cache: ResultCache | None = None
) -> list[RunMetrics]:
    """Completed metrics in manifest order (the export contract).

    Raises :class:`~repro.errors.RunnerError` while any unit is missing
    from the store — partial exports would silently change meaning.
    """
    base = _campaign_dir(directory)
    manifest = CampaignManifest.load(base)
    store = cache if cache is not None else default_store(base)
    results: list[RunMetrics] = []
    missing: list[str] = []
    for unit in manifest.units:
        metrics = store.get(unit.key)
        if metrics is None:
            missing.append(unit.job.describe())
        else:
            results.append(metrics)
    if missing:
        raise RunnerError(
            f"campaign incomplete: {len(missing)} of "
            f"{len(manifest.units)} unit(s) have no stored result:",
            failures=tuple(f"  {name}" for name in missing),
        )
    return results
