"""Plain-text file output.

The metric and experiment exporters (``runs_to_text`` & co.) live in
:mod:`repro.core.export`: they are views over ``repro.core`` result
types, and importing them here would point upward through the
architecture tower (REP012).
"""

from __future__ import annotations

from pathlib import Path


def write_text(path: str | Path, text: str) -> Path:
    """Write exported text to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
