"""Experiment plans: an experiment's jobs plus a pure fold to its report.

Every paper experiment is a batch of independent simulations followed by
arithmetic over their metrics; a :class:`Plan` states exactly that.
:func:`run_plan` is the one execution path: the same plan runs
in-process, across a process pool or from the result cache, depending
only on the runner it is handed.  :func:`combine` joins plans into one
batch, in which the runner executes simulations they share once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, Generic, TypeVar

from repro.core.metrics import RunMetrics
from repro.runner.job import Job
from repro.runner.pool import BatchRunner

K = TypeVar("K")
T = TypeVar("T")
U = TypeVar("U")


@dataclass(frozen=True)
class Plan(Generic[T]):
    """The jobs of one experiment and the fold from their metrics."""

    jobs: tuple[Job, ...]
    #: Pure function of the jobs' metrics, given in ``jobs`` order.
    fold: Callable[[Sequence[RunMetrics]], T]

    def then(self, finish: Callable[[T], U]) -> "Plan[U]":
        """The same jobs, with ``finish`` applied to the folded report."""
        fold = self.fold
        return Plan(self.jobs, lambda runs: finish(fold(runs)))


def combine(plans: Sequence[Plan[Any]]) -> Plan[list[Any]]:
    """One plan running every plan's jobs as one batch.

    Its fold returns each plan's report, in ``plans`` order.
    """
    plans = tuple(plans)

    def fold(runs: Sequence[RunMetrics]) -> list[Any]:
        reports = []
        start = 0
        for plan in plans:
            end = start + len(plan.jobs)
            reports.append(plan.fold(runs[start:end]))
            start = end
        return reports

    return Plan(tuple(job for plan in plans for job in plan.jobs), fold)


def grid(
    rows: Sequence[K], columns: Sequence[str], runs: Sequence[RunMetrics]
) -> dict[K, dict[str, RunMetrics]]:
    """Row-major ``runs`` of a rows x columns matrix as nested dicts."""
    width = len(columns)
    return {
        row: dict(zip(columns, runs[index * width:(index + 1) * width]))
        for index, row in enumerate(rows)
    }


def run_plan(plan: Plan[T], runner: BatchRunner | None = None) -> T:
    """Execute ``plan`` on ``runner`` (default: serial, no cache)."""
    return plan.fold((runner or BatchRunner.serial()).run(plan.jobs))
