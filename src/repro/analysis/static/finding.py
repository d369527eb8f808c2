"""The :class:`Finding` model and the rule registry for the static verifier.

A finding is one rule violation at one source location, plus the metadata
the reporting layer needs: a severity (mapped onto SARIF levels), and a
*fingerprint* — a content-addressed identity that survives line-number
drift so the checked-in baseline keeps matching a finding after unrelated
edits above it.

The registry (:data:`RULES`) is the single source of truth for rule ids,
one-line summaries and default severities; the SARIF emitter, the CLI help
and the docs table all derive from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import PurePosixPath

#: Severity levels, in increasing order of gravity.  These map 1:1 onto
#: SARIF ``level`` values ("note" / "warning" / "error").
SEVERITIES = ("note", "warning", "error")


@dataclass(frozen=True, slots=True)
class Rule:
    """Metadata for one rule id."""

    code: str
    summary: str
    severity: str = "error"


#: Every rule the verifier can emit; one invocation covers the whole
#: contract surface with one baseline and one SARIF report.
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule("REP001", "no unseeded global RNG or wall-clock reads"),
        Rule("REP002", "no assert for protocol violations (stripped by -O)"),
        Rule("REP003", "raised exceptions derive from ReproError"),
        Rule("REP004", "hot-path dataclasses declare slots=True"),
        Rule("REP005", "no attribute assignment through a frozen config"),
        Rule(
            "REP006",
            "Component.next_wake overrides return only None, WAKE_NEVER "
            "or integer cycle expressions, with the base signature",
        ),
        Rule(
            "REP007",
            "Component.set_fast_mode overrides chain to super()",
        ),
        Rule(
            "REP008",
            "Component observation and stepping hook overrides match the "
            "base class signatures",
        ),
        Rule(
            "REP009",
            "no iteration over unordered set expressions (arbitrary order "
            "feeds metrics or dispatch decisions)",
            severity="warning",
        ),
        Rule(
            "REP010",
            "no id()-keyed containers or membership tests (addresses vary "
            "across processes and break byte-identical output)",
            severity="warning",
        ),
        Rule(
            "REP011",
            "no float reductions (sum/fsum/mean) over unordered iterables "
            "in hot-path packages (accumulation order varies)",
            severity="warning",
        ),
        Rule(
            "REP012",
            "module imports respect the architecture layering and form no "
            "cycles",
        ),
    )
}


def _fingerprint_path(path: str) -> str:
    """Root-independent rendition of ``path`` for fingerprinting.

    The suffix starting at the last ``repro`` directory (``src/repro/x.py``
    and ``repro/x.py`` fingerprint identically); falls back to the file
    name so scans launched from different roots still match the baseline.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1] if parts else path


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Stripped text of the flagged physical line; the stable ingredient
    #: of the fingerprint (line *numbers* drift, line *content* rarely).
    snippet: str = ""

    @property
    def severity(self) -> str:
        rule = RULES.get(self.rule)
        return rule.severity if rule is not None else "error"

    @property
    def fingerprint(self) -> str:
        """Content-addressed identity used by the baseline.

        Built from the rule id, the root-independent path and the flagged
        line's stripped text — not the line number — so a baseline entry
        keeps matching while unrelated lines are added or removed above
        the finding.
        """
        payload = "\x1f".join(
            (self.rule, _fingerprint_path(self.path), self.snippet)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
