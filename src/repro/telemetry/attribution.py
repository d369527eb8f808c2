"""Top-down cycle accounting and bottleneck blame attribution.

The paper's argument is attributional: baseline latency is dominated by
*congestion* (Sec. III measures the L2 access queue full 46% and the DRAM
scheduler queue full 39% of their usage lifetime), so mitigation only
pays when applied where the blame actually lies.  This module turns that
methodology into an instrument with two cooperating parts:

**Cycle accounting** — every SM cycle is classified into exactly one of
four classes, read from the ``class.`` group of
:meth:`~repro.sim.component.Component.counters`:

* ``issue`` — at least one instruction issued;
* ``issue_starved`` — ready warps existed but nothing issued (the LD/ST
  queue was full: memory back-pressure reached the issue stage);
* ``no_ready_warp`` — every warp blocked on outstanding memory;
* ``drained`` — the SM finished while the rest of the GPU still ran.

The classes partition total cycles *exactly* (conservation is enforced by
the sanitizer's ``cycle_accounting_violations`` check and by the
attribution tests, and survives fast-forward byte-identically because the
SM replays skipped cycles into the same counters).

**Blame chains** — memory-pipeline stalls (``stall_mshr_full`` /
``stall_merge_full`` / ``stall_missq_full``, the ``stall.`` group of
the same counters) say *that* the SM was throttled, not *who* is
responsible.  Per window the probe walks the downstream occupancy
evidence deepest-first and assigns each stalled cycle to the deepest
congested stage:

* ``dram`` — the DRAM scheduler queue (or the L2 miss queue feeding it)
  was full for at least ``blame_threshold`` of the window;
* ``l2`` — the L2 access queue was that congested;
* ``icnt`` — the request crossbar spent that fraction of port-cycles
  with a delivered tail flit blocked by its sink;
* ``l1`` — an L1 miss queue filled with no congested stage below it
  (the L1's own miss bandwidth is the limit);
* ``mem_latency`` — MSHR/merge capacity ran out with nothing congested
  downstream: raw fill latency, not queueing (the magic-memory case).

Like :class:`~repro.telemetry.timeseries.TimeSeriesProbe`, the probe is a
:class:`~repro.sim.engine.Simulator` observer that only works at window
boundaries, keeps a bounded ring of windows, and accumulates exact
run-level totals separately so dropped windows never skew the final
blame vector.  Attaching it never changes simulated behaviour.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import UsageError
from repro.sim.component import CLASS_PREFIX, STALL_PREFIX
from repro.telemetry.timeseries import DEFAULT_MAX_WINDOWS, DEFAULT_WINDOW

#: Downstream-congestion fraction above which a stage takes the blame.
DEFAULT_BLAME_THRESHOLD = 0.25

#: Blame stages, deepest (furthest from the SM) first.
BLAME_STAGES = ("dram", "l2", "icnt", "l1", "mem_latency")

#: Stall causes that mean "the L1 could not push a miss downstream".
_QUEUE_CAUSES = frozenset({"stall_missq_full"})


@dataclass(frozen=True)
class AttributionWindow:
    """Cycle accounting and blame for one ``[start, end)`` window."""

    index: int
    start: int
    end: int
    #: Total SM-cycles stepped in the window (summed over SMs); the
    #: ``classes`` partition it exactly.
    sm_cycles: int = 0
    #: class -> SM-cycles in the window (summed over SMs).
    classes: dict[str, int] = field(default_factory=dict)
    #: stall cause -> memory-pipeline stall cycles in the window.
    stalls: dict[str, int] = field(default_factory=dict)
    #: stage -> windowed congestion evidence in [0, 1].
    signals: dict[str, float] = field(default_factory=dict)
    #: stage -> stall cycles blamed on it (sums to the window's stalls).
    blame: dict[str, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready rendition (used by ``RunMetrics.extras``)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "sm_cycles": self.sm_cycles,
            "classes": dict(self.classes),
            "stalls": dict(self.stalls),
            "signals": dict(self.signals),
            "blame": dict(self.blame),
        }


class AttributionProbe:
    """Windowed cycle accounting + blame chains over a simulator.

    Parameters
    ----------
    sim:
        The simulator whose components are read (through ``queues`` and
        the ``class.`` / ``stall.`` groups of ``counters``).
    window:
        Window length in core cycles.
    max_windows:
        Ring-buffer depth for retained windows; run-level totals are
        accumulated separately and stay exact when windows are dropped.
    blame_threshold:
        Minimum windowed congestion fraction for a stage to take blame.
    """

    def __init__(
        self,
        sim,
        *,
        window: int = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        blame_threshold: float = DEFAULT_BLAME_THRESHOLD,
    ) -> None:
        if window < 1:
            raise UsageError(f"attribution window must be >= 1, got {window}")
        if max_windows < 1:
            raise UsageError(
                f"attribution max_windows must be >= 1, got {max_windows}"
            )
        if not 0.0 < blame_threshold <= 1.0:
            raise UsageError(
                "blame_threshold must be in (0, 1], got "
                f"{blame_threshold}"
            )
        self._sim = sim
        self.window = window
        self.max_windows = max_windows
        self.blame_threshold = blame_threshold
        self._windows: deque[AttributionWindow] = deque(maxlen=max_windows)
        #: Windows evicted from the ring buffer (oldest first).
        self.dropped = 0
        self._window_start = 0
        self._index = 0
        self._finalized = False
        self._scanned = False
        #: family -> [StatQueue, ...] for the blame-chain evidence.
        self._queues: dict[str, list] = {}
        # Cumulative snapshots at the previous window boundary.
        self._prev_classes: dict[str, int] = {}
        self._prev_stalls: dict[str, int] = {}
        self._prev_queue_full: dict[str, int] = {}
        self._prev_blocked = 0
        # Exact run-level totals (independent of the window ring).
        self._class_totals: dict[str, int] = {}
        self._stall_totals: dict[str, int] = {}
        self._blame_totals: dict[str, int] = {stage: 0 for stage in BLAME_STAGES}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        gpu,
        *,
        window: int = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        blame_threshold: float = DEFAULT_BLAME_THRESHOLD,
    ) -> "AttributionProbe":
        """Attach a new probe to a built (not yet run) GPU model."""
        probe = cls(
            gpu.sim,
            window=window,
            max_windows=max_windows,
            blame_threshold=blame_threshold,
        )
        gpu.sim.attach_observer(probe)
        return probe

    def _scan(self) -> None:
        """Discover the blame-chain queues through the hooks."""
        for component in self._sim.components:
            for family, queue in component.queues():
                self._queues.setdefault(family, []).append(queue)
        self._scanned = True

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        """Engine hook: capture a window at each boundary."""
        boundary = now + 1  # the engine has already advanced past ``now``
        if boundary % self.window:
            return
        self._capture(boundary)

    def on_finalize(self, now: int) -> None:
        """Engine hook: close the final (possibly partial) window."""
        if self._finalized:
            return
        self._finalized = True
        self._capture(now)

    # ------------------------------------------------------------------
    # the capture itself
    # ------------------------------------------------------------------
    def _read_counters(self) -> tuple[dict[str, int], dict[str, int], int]:
        """Cumulative class counts, stall cycles by cause and blocked cycles.

        Summed over components; the blocked count is the request-path
        crossbar's delivery-blocked port-cycles.
        """
        classes: dict[str, int] = {}
        stalls: dict[str, int] = {}
        blocked = 0
        for component in self._sim.components:
            for name, value in component.counters():
                if name.startswith(CLASS_PREFIX):
                    key = name[len(CLASS_PREFIX):]
                    classes[key] = classes.get(key, 0) + value
                elif name.startswith(STALL_PREFIX):
                    key = name[len(STALL_PREFIX):]
                    stalls[key] = stalls.get(key, 0) + value
                elif name == "req_xbar_delivery_blocked_cycles":
                    blocked += int(value)
        return classes, stalls, blocked

    def _queue_full_share(
        self, family: str, length: int, boundary: int
    ) -> float:
        """Fraction of the window the family's queues spent full."""
        queues = self._queues.get(family)
        if not queues:
            return 0.0
        full = sum(q.full_cycles(boundary) for q in queues)
        prev = self._prev_queue_full.get(family, 0)
        self._prev_queue_full[family] = full
        return (full - prev) / (length * len(queues))

    def _capture(self, boundary: int) -> None:
        if not self._scanned:
            self._scan()
        length = boundary - self._window_start
        if length <= 0:
            return

        class_now, stall_now, blocked_now = self._read_counters()

        # --- cycle-class deltas -----------------------------------------
        classes = {
            name: count - self._prev_classes.get(name, 0)
            for name, count in class_now.items()
        }
        self._prev_classes = class_now
        self._class_totals = class_now
        sm_cycles = classes.pop("cycles", 0)

        # --- stall-cause deltas -----------------------------------------
        stalls = {
            cause: cycles - self._prev_stalls.get(cause, 0)
            for cause, cycles in stall_now.items()
        }
        self._prev_stalls = stall_now
        self._stall_totals = stall_now

        # --- downstream congestion evidence -----------------------------
        blocked = blocked_now - self._prev_blocked
        self._prev_blocked = blocked_now
        signals = {
            "dram": max(
                self._queue_full_share("dram_schedq", length, boundary),
                self._queue_full_share("l2_missq", length, boundary),
            ),
            "l2": self._queue_full_share("l2_accessq", length, boundary),
            "icnt": min(1.0, blocked / length),
            "l1": self._queue_full_share("l1_missq", length, boundary),
        }

        # --- winner-take-all blame, deepest congested stage first -------
        blame = {stage: 0 for stage in BLAME_STAGES}
        threshold = self.blame_threshold
        for cause, stalled in stalls.items():
            if stalled <= 0:
                continue
            if signals["dram"] >= threshold:
                stage = "dram"
            elif signals["l2"] >= threshold:
                stage = "l2"
            elif signals["icnt"] >= threshold:
                stage = "icnt"
            elif cause in _QUEUE_CAUSES:
                stage = "l1"
            else:
                stage = "mem_latency"
            blame[stage] += stalled
        for stage, stalled in blame.items():
            self._blame_totals[stage] += stalled

        if len(self._windows) == self.max_windows:
            self.dropped += 1  # deque evicts the oldest on append
        self._windows.append(
            AttributionWindow(
                index=self._index,
                start=self._window_start,
                end=boundary,
                sm_cycles=sm_cycles,
                classes=classes,
                stalls=stalls,
                signals=signals,
                blame=blame,
            )
        )
        self._index += 1
        self._window_start = boundary

    # ------------------------------------------------------------------
    # reading the results
    # ------------------------------------------------------------------
    @property
    def windows(self) -> list[AttributionWindow]:
        """Retained windows, oldest first."""
        return list(self._windows)

    def class_totals(self) -> dict[str, int]:
        """Run-level class counts (``"cycles"`` plus the partition)."""
        return dict(self._class_totals)

    def stall_totals(self) -> dict[str, int]:
        """Run-level memory-pipeline stall cycles by cause."""
        return dict(self._stall_totals)

    def blame_totals(self) -> dict[str, int]:
        """Run-level blame vector (stall cycles per stage)."""
        return dict(self._blame_totals)

    def conserved(self) -> bool:
        """True when the accounting classes sum exactly to total cycles."""
        classes = dict(self._class_totals)
        total = classes.pop("cycles", 0)
        return sum(classes.values()) == total

    def summary(self) -> dict:
        """JSON-ready structure for ``RunMetrics.extras['attribution']``."""
        classes = dict(self._class_totals)
        sm_cycles = classes.pop("cycles", 0)
        return {
            "window": self.window,
            "max_windows": self.max_windows,
            "dropped": self.dropped,
            "blame_threshold": self.blame_threshold,
            "sm_cycles": sm_cycles,
            "classes": classes,
            "stalls": self.stall_totals(),
            "blame": self.blame_totals(),
            "conserved": self.conserved(),
            "windows": [w.to_dict() for w in self._windows],
        }
