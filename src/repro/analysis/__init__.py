"""Correctness tooling: simulator sanitizer and whole-program static verifier.

Two independent halves, both enforcing the model's contracts mechanically
rather than trusting any single implementation:

* :class:`Sanitizer` (``repro.analysis.sanitizer``) — a dynamic checker
  attachable to a running :class:`~repro.sim.engine.Simulator` that proves,
  per cycle or per epoch, request conservation, timestamp monotonicity,
  MSHR integrity, queue bounds and forward progress.  Violations raise
  :class:`~repro.errors.SanitizerError` with a full diagnostic dump.
* The static verifier (``repro.analysis.static``) — AST passes over a
  parsed-once module set: per-module hygiene (REP001-005: no global RNG
  or wall-clock reads, no bare ``assert`` for protocol violations, all
  exceptions under :class:`~repro.errors.ReproError`, hot-path
  dataclasses slotted, no frozen-config mutation), Component
  wake-hint/hook contracts (REP006-008), determinism hazards (REP009-011)
  and architecture layering over the import graph (REP012), with inline
  suppressions, a checked-in baseline and JSON/SARIF output.  Run as
  ``repro lint``.
"""

from repro.analysis.sanitizer import Sanitizer
from repro.analysis.static import Finding, StaticReport, analyze_paths

__all__ = [
    "Finding",
    "Sanitizer",
    "StaticReport",
    "analyze_paths",
]
