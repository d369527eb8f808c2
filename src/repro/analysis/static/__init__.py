"""Whole-program static verifier (REP001-REP012).

A multi-pass verifier over a parsed-once module set, with cross-file
resolution, inline suppressions, a checked-in baseline and JSON/SARIF
reporting.  Pass families:

* **Hygiene** (REP001-005, :mod:`repro.analysis.static.hygiene`) — no
  global RNG or wall-clock reads, no ``assert`` for protocol checks,
  exceptions under ``ReproError``, slotted hot-path dataclasses, no
  frozen-config mutation.
* **Component contracts** (REP006-008,
  :mod:`repro.analysis.static.contracts`) — every
  :class:`~repro.sim.component.Component` subclass honors the wake-hint
  protocol the engine's fast-forward depends on.
* **Determinism** (REP009-011,
  :mod:`repro.analysis.static.determinism`) — no unordered iteration,
  ``id()`` keys or order-sensitive float reductions feeding metrics or
  dispatch.
* **Layering** (REP012, :mod:`repro.analysis.static.layering`) — the
  module import graph respects the architecture tower and is acyclic.

Entry point: ``repro lint [paths]``; programmatic use via
:func:`analyze_paths` / :func:`run_static`.
"""

from repro.analysis.static.baseline import Baseline, BaselineEntry
from repro.analysis.static.finding import RULES, Finding, Rule
from repro.analysis.static.runner import StaticReport, analyze_paths, run_static

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "RULES",
    "Rule",
    "StaticReport",
    "analyze_paths",
    "run_static",
]
