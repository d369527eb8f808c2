"""Structured campaign observability: JSONL event log + progress line.

:class:`EventLog` appends one JSON object per line to a file as a
campaign executes — job submission, start, finish (with per-job wall
time), cache hits, retries, failures, and batch-level summaries with
pool-utilization figures.  The log is append-only and flushed per event,
so a killed campaign leaves a complete record of everything that
happened before the kill; re-running appends a fresh batch to the same
file.  Event timestamps carry both a monotonic offset from log creation
(``t``, for intra-campaign intervals) and a wall-clock epoch (``ts``,
for correlating with the outside world).

:class:`ProgressLine` is the opt-in one-line ticker for ``--jobs N``
sweeps: it rewrites a single stderr line as jobs complete, so report
output on stdout stays byte-identical with or without it.

Both are strictly additive: a :class:`~repro.runner.pool.BatchRunner`
without them executes exactly the code it always did.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, TextIO


#: Compact JSON through the C encoder (``json.dump`` streams through the
#: pure-Python one, at about twice the cost per event).
_encode = json.JSONEncoder(separators=(",", ":")).encode


class EventLog:
    """Append-only JSONL event sink for runner campaigns.

    Parameters
    ----------
    path:
        File to append events to; parent directories are created.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path).expanduser()
        if self.path.parent and not self.path.parent.is_dir():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._t0 = time.monotonic()  # noqa: REP001 - host wall timing, not simulated time
        #: Events written through this log instance.
        self.events_written = 0

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event record (flushed immediately)."""
        record: dict[str, Any] = {
            "t": round(time.monotonic() - self._t0, 6),  # noqa: REP001 - host wall timing, not simulated time
            "ts": round(time.time(), 3),  # noqa: REP001 - host wall timing, not simulated time
            "event": event,
        }
        record.update(fields)
        self._handle.write(_encode(record) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        """Close the underlying file (further emits would fail)."""
        self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ProgressLine:
    """Single rewritten stderr line tracking a batch's completion.

    The carriage-return rewrite trick only makes sense on a terminal;
    when the stream is not a tty (stderr redirected to a file, a CI log,
    a pipe) updates are emitted as plain newline-terminated lines
    instead, so logs never fill with ``\\r``-garbage.  ``tty`` overrides
    the autodetection (useful for tests).

    Plain (non-tty) mode is *throttled*: a large sweep completes
    thousands of jobs, and one log line per completion floods CI logs.
    A plain update is emitted only when it is the first, reaches the
    final count, reports a new failure, advances completion past the
    next ``percent_step`` boundary, or arrives at least
    ``min_interval`` seconds after the previous emitted line.  Tty
    rewrites are untouched — a terminal line costs nothing to redraw.
    """

    #: Minimum seconds between time-triggered plain-mode lines.
    DEFAULT_MIN_INTERVAL = 5.0

    #: Completion-percent granularity of plain-mode lines.
    DEFAULT_PERCENT_STEP = 10.0

    def __init__(
        self,
        stream: TextIO | None = None,
        tty: bool | None = None,
        min_interval: float = DEFAULT_MIN_INTERVAL,
        percent_step: float = DEFAULT_PERCENT_STEP,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        if tty is None:
            try:
                tty = self._stream.isatty()
            except (AttributeError, ValueError, OSError):
                tty = False
        self._tty = tty
        self._width = 0
        self._active = False
        self._min_interval = max(0.0, min_interval)
        self._percent_step = max(0.0, percent_step)
        self._last_emit: float | None = None
        self._last_percent = 0.0
        self._last_failed = 0

    def _should_emit_plain(self, done: int, total: int, failed: int) -> bool:
        """Throttle decision for one non-tty update."""
        now = time.monotonic()  # noqa: REP001 - host log pacing, not simulated time
        percent = (100.0 * done / total) if total > 0 else 100.0
        emit = (
            self._last_emit is None
            or done >= total
            or failed != self._last_failed
            or percent - self._last_percent >= self._percent_step
            or now - self._last_emit >= self._min_interval
        )
        if emit:
            self._last_emit = now
            self._last_percent = percent
            self._last_failed = failed
        return emit

    def update(
        self,
        done: int,
        total: int,
        *,
        cached: int = 0,
        failed: int = 0,
        retried: int = 0,
    ) -> None:
        """Rewrite (tty) or append (non-tty, throttled) the counts."""
        if not self._tty and not self._should_emit_plain(done, total, failed):
            return
        parts = [f"{cached} cached"]
        if retried:
            parts.append(f"{retried} retried")
        if failed:
            parts.append(f"{failed} failed")
        line = f"[{done}/{total}] jobs done ({', '.join(parts)})"
        if self._tty:
            padding = " " * max(0, self._width - len(line))
            self._stream.write(f"\r{line}{padding}")
            self._active = True
        else:
            self._stream.write(f"{line}\n")
        self._stream.flush()
        self._width = len(line)

    def finish(self) -> None:
        """Terminate the rewritten line so later output starts cleanly."""
        if self._active:
            self._stream.write("\n")
            self._stream.flush()
            self._active = False
