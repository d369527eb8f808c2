"""The batch runner: serial or process-pool execution with bounded retry.

:class:`BatchRunner` executes a sequence of :class:`~repro.runner.Job`\\ s
and returns their metrics *in submission order*:

1. jobs are deduplicated by content key (identical jobs run once);
2. the cache (when attached) is consulted for every unique key;
3. remaining jobs run in-process (``jobs=1``, or a single pending job)
   or across a ``ProcessPoolExecutor``; a job's probes run wherever the
   job does, and their summaries return in ``RunMetrics.extras``;
4. worker crashes and unexpected errors are retried up to ``retries``
   extra attempts; deterministic simulator failures
   (:class:`~repro.errors.ReproError`) are not retried — re-running the
   same frozen config cannot change the outcome;
5. results are merged back by key, never by completion order, so output
   is identical whatever the parallelism;
6. any job still failing raises one :class:`~repro.errors.RunnerError`
   summary.  Completed results were cached as they arrived, so a rerun
   repeats only the failures.

Observability is opt-in per runner: pass ``events=EventLog(path)`` for a
JSONL record of every submit/start/finish/retry (plus batch summaries
with pool utilization computed from in-worker wall times), and
``progress=True`` for a single rewritten stderr line during long sweeps.
Neither changes results — stdout and metrics stay byte-identical.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.metrics import RunMetrics
from repro.errors import ReproError, RunnerError, UsageError
from repro.runner.cache import ResultCache
from repro.runner.events import EventLog, ProgressLine
from repro.runner.job import Job

#: Extra attempts granted to a crashed job before it is reported failed.
DEFAULT_RETRIES = 2

#: Test hook (see :func:`_maybe_inject_fault`); never set in production.
FAULT_ENV = "REPRO_RUNNER_FAULT"


def _maybe_inject_fault() -> None:
    """Hard-crash the worker while the fault budget file is positive.

    When ``REPRO_RUNNER_FAULT`` names a file holding an integer > 0, the
    worker decrements the counter and dies via ``os._exit`` —
    indistinguishable from a real worker crash.  This exists only so the
    retry path is testable end to end; it runs exclusively inside pool
    workers, never in the parent process.
    """
    fault = os.environ.get(FAULT_ENV)
    if not fault:
        return
    path = Path(fault)
    try:
        remaining = int(path.read_text().strip() or 0)
    except (OSError, ValueError):
        return
    if remaining > 0:
        path.write_text(str(remaining - 1))
        os._exit(17)


def _timed_execute(job: Job) -> tuple[RunMetrics, float]:
    """The job's metrics plus its wall time in the executing process, so
    the parent can log per-job durations without conflating them with
    queueing."""
    start = time.perf_counter()  # noqa: REP001 - host wall timing, not simulated time
    metrics = job.execute()
    return metrics, time.perf_counter() - start  # noqa: REP001 - host wall timing, not simulated time


def _pool_execute(job: Job) -> tuple[RunMetrics, float]:
    """Worker body; module-level so the pool can pickle it."""
    _maybe_inject_fault()
    return _timed_execute(job)


@dataclass(frozen=True)
class JobFailure:
    """One job's terminal failure after all attempts."""

    job: Job
    attempts: int
    error: str

    def render(self) -> str:
        return f"  {self.job.describe()}: {self.error} [{self.attempts} attempt(s)]"


@dataclass
class RunnerStats:
    """What the last :meth:`BatchRunner.run` actually did."""

    jobs: int = 0
    unique: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    failed: int = 0

    def add(self, other: "RunnerStats") -> None:
        """Fold another batch's counters into this one."""
        self.jobs += other.jobs
        self.unique += other.unique
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.retried += other.retried
        self.failed += other.failed


class BatchRunner:
    """Executes job batches serially or across a process pool."""

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        retries: int = DEFAULT_RETRIES,
        events: EventLog | None = None,
        progress: bool = False,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise UsageError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
        #: Optional JSONL event sink (see :mod:`repro.runner.events`).
        self.events = events
        #: Opt-in stderr progress line for long sweeps.
        self.progress = ProgressLine() if progress else None
        #: Counters for the most recent :meth:`run` call.
        self.last_stats = RunnerStats()
        #: Counters accumulated over every :meth:`run` call of this runner.
        self.total_stats = RunnerStats()
        #: In-worker wall seconds summed over executed jobs (last run).
        self.busy_seconds = 0.0

    @classmethod
    def serial(cls) -> "BatchRunner":
        """In-process runner with no cache: the default of :func:`run_plan`.

        Every job executes in the calling process, in order, and nothing
        is read from or written to disk.
        """
        return cls(jobs=1, cache=None)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> list[RunMetrics]:
        """Execute ``jobs``; returns metrics in the order given."""
        jobs = list(jobs)
        stats = RunnerStats(jobs=len(jobs))
        self.last_stats = stats
        self.busy_seconds = 0.0
        if not jobs:
            return []

        started = time.perf_counter()  # noqa: REP001 - host wall timing, not simulated time
        keys: list[str] = []
        unique: dict[str, Job] = {}
        for job in jobs:
            key = job.key()
            keys.append(key)
            unique.setdefault(key, job)
        stats.unique = len(unique)

        results: dict[str, RunMetrics] = {}
        if self.cache is not None:
            for key, job in unique.items():
                hit = self.cache.get(key)
                if hit is not None:
                    results[key] = hit
                    self._emit("cache_hit", key=key, job=job.describe())
            stats.cache_hits = len(results)

        pending = {k: j for k, j in unique.items() if k not in results}
        if self.cache is not None:
            self.cache.record_usage(
                hits=stats.cache_hits, misses=len(pending)
            )
        self._emit(
            "batch_start",
            jobs=len(jobs),
            unique=stats.unique,
            pending=len(pending),
            cache_hits=stats.cache_hits,
            workers=self.jobs,
        )
        failures: dict[str, JobFailure] = {}
        self._tick(stats, failures)
        pending_count = len(pending)  # _run_pool consumes the dict
        if pending:
            if self.jobs == 1 or len(pending) == 1:
                self._run_serial(pending, results, failures, stats)
            else:
                self._run_pool(pending, results, failures, stats)

        stats.failed = len(failures)
        self.total_stats.add(stats)
        wall = time.perf_counter() - started  # noqa: REP001 - host wall timing, not simulated time
        workers = min(self.jobs, pending_count) if pending_count else 1
        self._emit(
            "batch_end",
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            retried=stats.retried,
            failed=stats.failed,
            wall_s=round(wall, 6),
            busy_s=round(self.busy_seconds, 6),
            workers=workers,
            pool_utilization=round(
                self.busy_seconds / (wall * workers), 4
            ) if wall > 0 else 0.0,
        )
        if self.progress is not None:
            self.progress.finish()
        if failures:
            ordered = [failures[k] for k in unique if k in failures]
            raise RunnerError(
                f"{len(failures)} of {stats.unique} job(s) failed "
                f"({stats.executed} completed, {stats.cache_hits} cached):",
                failures=tuple(f.render() for f in ordered),
            )
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        """Forward one event to the attached log, if any."""
        if self.events is not None:
            self.events.emit(event, **fields)

    def _tick(self, stats: RunnerStats, failures: dict) -> None:
        """Refresh the progress line, if enabled."""
        if self.progress is None:
            return
        failed = len(failures)
        self.progress.update(
            stats.cache_hits + stats.executed + failed,
            stats.unique,
            cached=stats.cache_hits,
            failed=failed,
            retried=stats.retried,
        )

    def _finish(
        self,
        key: str,
        attempt: int,
        outcome: tuple[RunMetrics, float],
        results: dict[str, RunMetrics],
        stats: RunnerStats,
    ) -> None:
        """Store one executed job's metrics (``outcome``: metrics, wall)."""
        metrics, wall = outcome
        self.busy_seconds += wall
        stats.executed += 1
        results[key] = metrics
        if self.cache is not None:
            self.cache.put(key, metrics)
        self._emit(
            "job_finish", key=key, attempt=attempt, wall_s=round(wall, 6),
            truncated=metrics.truncated,
        )

    def _fail(
        self,
        key: str,
        job: Job,
        attempt: int,
        error: str,
        failures: dict[str, JobFailure],
    ) -> None:
        failures[key] = JobFailure(job, attempt, error)
        self._emit(
            "job_error", key=key, attempt=attempt, error=error, fatal=True)

    def _retry_or_fail(
        self,
        key: str,
        job: Job,
        attempt: int,
        error: str,
        failures: dict[str, JobFailure],
        stats: RunnerStats,
    ) -> bool:
        """Grant a crashed job another attempt; False once it is spent."""
        if attempt > self.retries:
            self._fail(key, job, attempt, error, failures)
            return False
        stats.retried += 1
        self._emit("job_retry", key=key, attempt=attempt, error=error)
        return True

    def _run_serial(
        self,
        pending: dict[str, Job],
        results: dict[str, RunMetrics],
        failures: dict[str, JobFailure],
        stats: RunnerStats,
    ) -> None:
        """In-process path: no pickling, same semantics as the pool."""
        for key, job in pending.items():
            attempt = 0
            while True:
                attempt += 1
                self._emit(
                    "job_start", key=key, job=job.describe(), attempt=attempt)
                try:
                    outcome = _timed_execute(job)
                except ReproError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    self._fail(key, job, attempt, error, failures)
                    break
                except Exception as exc:  # unexpected: retry, then surface
                    error = f"{type(exc).__name__}: {exc}"
                    if not self._retry_or_fail(
                            key, job, attempt, error, failures, stats):
                        break
                else:
                    self._finish(key, attempt, outcome, results, stats)
                    break
            self._tick(stats, failures)

    def _run_pool(
        self,
        pending: dict[str, Job],
        results: dict[str, RunMetrics],
        failures: dict[str, JobFailure],
        stats: RunnerStats,
    ) -> None:
        """Fan out over a process pool, rebuilding it after crashes.

        A dead worker breaks the whole executor and every outstanding
        future raises ``BrokenProcessPool``; each affected job loses one
        attempt and the pool is rebuilt for the survivors, so one crashy
        job cannot sink the batch but cannot loop forever either.
        """
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        attempts: dict[str, int] = {key: 0 for key in pending}
        while pending:
            round_jobs = dict(pending)
            crashed: list[str] = []
            # Per-round: a crash in round N must be reported with round
            # N's diagnostics, not a stale exception text from round N-1.
            crash_errors: dict[str, str] = {}
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(round_jobs))
            ) as pool:
                futures = {}
                for key, job in round_jobs.items():
                    attempts[key] += 1
                    self._emit(
                        "job_start", key=key, job=job.describe(),
                        attempt=attempts[key],
                    )
                    futures[pool.submit(_pool_execute, job)] = key
                for future in as_completed(futures):
                    key = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        crashed.append(key)
                    except ReproError as exc:
                        self._fail(
                            key, round_jobs[key], attempts[key],
                            f"{type(exc).__name__}: {exc}", failures)
                        del pending[key]
                    except Exception as exc:  # worker died or pickling broke
                        crashed.append(key)
                        crash_errors[key] = f"{type(exc).__name__}: {exc}"
                    else:
                        self._finish(
                            key, attempts[key], outcome, results, stats)
                        del pending[key]
                    self._tick(stats, failures)
            for key in crashed:
                error = crash_errors.get(
                    key, "worker crashed (process pool broken)"
                )
                if not self._retry_or_fail(
                        key, round_jobs[key], attempts[key], error,
                        failures, stats):
                    del pending[key]
            if crashed:
                self._tick(stats, failures)
