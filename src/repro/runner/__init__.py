"""Batch execution: parallel fan-out of simulations with an on-disk cache.

Every headline experiment of the paper — the Figure 1 latency sweep, the
Section III congestion study, the Table I design-space exploration — is an
embarrassingly parallel batch of independent :func:`repro.core.metrics.run_kernel`
invocations.  This package turns each invocation into a pure, picklable
:class:`Job`, each experiment into a :class:`Plan` (its jobs plus a pure
fold to its report, executed by :func:`run_plan`), fans batches out over a ``multiprocessing`` pool
(:class:`BatchRunner`), and memoizes completed jobs in a content-addressed
on-disk cache (:class:`ResultCache`) so repeated report iterations are
nearly free.

Three guarantees the drivers rely on:

* **Determinism.** Results are merged back by job key in submission
  order, never by completion order, so ``jobs=N`` output is byte-identical
  to ``jobs=1``.
* **Fidelity.** A job's opt-in observers (sanitizer, telemetry; the
  job's :class:`~repro.core.metrics.ProbeSpec`) run inside whichever
  process executes it, and their summaries come back in
  ``RunMetrics.extras``, identical in-process and in a pool worker.
* **Loud failure.** Worker crashes are retried a bounded number of
  times; whatever still fails surfaces as one
  :class:`repro.errors.RunnerError` summary instead of a half-finished
  report (completed results are already cached and survive the error).

Campaign observability is opt-in: an :class:`EventLog` appends one JSON
line per runner event (submit/start/finish with per-job wall time, cache
hit, retry, batch summaries with pool utilization) and a
:class:`ProgressLine` tickers long ``--jobs N`` sweeps on stderr; the
cache additionally keeps advisory hit/miss statistics readable through
``repro cache info``.

Sweeps too big for one process become *campaigns*
(:mod:`repro.runner.campaign`): a persistent manifest of content-
addressed work units that independent worker processes claim via atomic
claim files, execute through their own :class:`BatchRunner` into one
shared :class:`ResultCache`, and record in an append-only completion
ledger — killed campaigns resume from exactly what is done, and results
export byte-identically to a serial run.  ``repro campaign
run|status|resume`` is the CLI surface.
"""

from repro.runner.job import Job, code_version
from repro.runner.cache import CacheStats, ResultCache, default_cache_dir
from repro.runner.events import EventLog, ProgressLine
from repro.runner.pool import DEFAULT_RETRIES, BatchRunner, JobFailure, RunnerStats
from repro.runner.plan import Plan, combine, run_plan
from repro.runner.campaign import (
    CampaignManifest,
    CampaignStatus,
    CampaignWorker,
    WorkUnit,
    WorkerReport,
    campaign_results,
    campaign_status,
    render_status,
)

__all__ = [
    "Job",
    "code_version",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "BatchRunner",
    "EventLog",
    "JobFailure",
    "ProgressLine",
    "RunnerStats",
    "DEFAULT_RETRIES",
    "Plan",
    "combine",
    "run_plan",
    "CampaignManifest",
    "CampaignStatus",
    "CampaignWorker",
    "WorkUnit",
    "WorkerReport",
    "campaign_results",
    "campaign_status",
    "render_status",
]
