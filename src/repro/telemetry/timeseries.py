"""One windowed probe over the memory hierarchy: timeline and blame.

:class:`WindowSampler` is a :class:`~repro.sim.engine.Simulator`
observer (attached via ``Simulator.attach_observer``, like the
:mod:`repro.analysis` sanitizer) that chops the run into fixed-cycle
windows.  At each window boundary it walks every component's
``counters`` once and stores one :class:`Window` record of deltas:

* the ``class.`` (cycle accounting), ``stall.`` (memory-pipeline stall
  cycles by cause) and plain counters;
* per Table I queue family (L1 miss queues, L2 access / miss / response
  queues, DRAM scheduler and return queues), the full, busy, rejected
  and pushed counts summed over the family's instances;
* the instance counts, the queue fill levels and the L1/L2 MSHR
  occupancy at the boundary.

Nothing is sampled per cycle, and attaching the sampler never changes
simulated behaviour.  Records land in a ring buffer (``max_windows``
deep); beyond that the oldest are dropped and counted in
:attr:`WindowSampler.dropped`, so long runs hold O(max_windows) memory.
Because records store deltas, the retained windows reconcile exactly
with the difference of the cumulative aggregates at their two edges.

Two pure views fold over the records:

* :meth:`WindowSampler.timeline` (``RunMetrics.extras['timeline']``) —
  per window: IPC, the full and busy fractions and depths of every queue
  family, MSHR occupancy, DRAM bus utilization and the plain counter
  deltas (so derived series need no sampler changes).
* :meth:`WindowSampler.attribution` (``RunMetrics.extras['attribution']``,
  the data behind ``repro profile``) — top-down cycle accounting and
  blame.  Every SM cycle falls in exactly one class: ``issue`` (an
  instruction issued), ``issue_starved`` (ready warps, but the LD/ST
  queue was full), ``no_ready_warp`` (every warp waits on memory) or
  ``drained`` (the SM finished early).  The classes partition total
  cycles exactly, also under fast-forward (the SM replays skipped cycles
  into the same counters); the sanitizer checks the same invariant.

Memory-pipeline stalls say *that* the SM was throttled, not *who* is
responsible.  :func:`blame` charges each window's stalled cycles to the
deepest stage whose congestion signal reaches the threshold:

* ``dram`` — the DRAM scheduler queue (or the L2 miss queue feeding it)
  was full for that fraction of the window;
* ``l2`` — the L2 access queue was that congested;
* ``icnt`` — the request crossbar spent that fraction of port-cycles
  with a delivered tail flit blocked by its sink;
* ``l1`` — an L1 miss queue filled with no congested stage below it;
* ``mem_latency`` — MSHR/merge capacity ran out with nothing congested
  downstream: raw fill latency, not queueing (the magic-memory case).

The sampler adds each window's blame to its run totals as the window is
captured, so the totals stay exact when windows are dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import UsageError
from repro.sim.component import CLASS_PREFIX, STALL_PREFIX

#: Default window length in core cycles.
DEFAULT_WINDOW = 2_000
#: Default ring-buffer capacity, in windows.
DEFAULT_MAX_WINDOWS = 512
#: Downstream-congestion fraction above which a stage takes the blame.
DEFAULT_BLAME_THRESHOLD = 0.25

#: Blame stages, deepest (furthest from the SM) first.
BLAME_STAGES = ("dram", "l2", "icnt", "l1", "mem_latency")

#: Stall causes that mean "the L1 could not push a miss downstream".
_QUEUE_CAUSES = frozenset({"stall_missq_full"})


@dataclass(frozen=True)
class Window:
    """What the sampler read for one ``[start, end)`` cycle window."""

    index: int
    start: int
    end: int
    #: class -> SM-cycles in the window, summed over SMs; ``cycles`` is
    #: their total.
    classes: dict[str, int]
    #: stall cause -> memory-pipeline stall cycles in the window.
    stalls: dict[str, int]
    #: name -> windowed delta of every plain (unprefixed) counter.
    counters: dict[str, float]
    #: family -> cycles the family's queues were full (summed).
    queue_full: dict[str, int]
    #: family -> cycles the family's queues held >= 1 entry (summed).
    queue_busy: dict[str, int]
    #: family -> pushes refused inside the window.
    queue_rejections: dict[str, int]
    #: family -> successful pushes inside the window.
    queue_pushes: dict[str, int]
    #: family -> number of queue instances.
    queue_instances: dict[str, int]
    #: family -> mean instantaneous fill level (0..1) at the window edge.
    queue_depth: dict[str, float]
    #: family -> fraction of MSHR entries held at the window edge.
    mshr_occupancy: dict[str, float]
    #: Components publishing ``dram_bus_busy_cycles`` (DRAM channels).
    dram_channels: int

    @property
    def length(self) -> int:
        return self.end - self.start


def _group(counters: dict, prefix: str) -> dict:
    """The ``prefix`` group of ``counters``, with the prefix stripped."""
    return {
        name[len(prefix):]: value for name, value in counters.items()
        if name.startswith(prefix)
    }


def _timeline_window(w: Window) -> dict:
    """One window of ``extras['timeline']``."""
    length = w.length
    return {
        "index": w.index,
        "start": w.start,
        "end": w.end,
        "ipc": w.counters.get("instructions", 0) / length,
        "queue_full_cycles": dict(w.queue_full),
        "queue_busy_cycles": dict(w.queue_busy),
        # The windowed Section III metric; 0.0 for an idle window.
        "queue_full_fraction": {
            family: full / w.queue_busy[family] if w.queue_busy[family]
            else 0.0
            for family, full in w.queue_full.items()
        },
        "queue_busy_fraction": {
            family: busy / (length * w.queue_instances[family])
            for family, busy in w.queue_busy.items()
        },
        "queue_depth": dict(w.queue_depth),
        "queue_rejections": dict(w.queue_rejections),
        "queue_pushes": dict(w.queue_pushes),
        "mshr_occupancy": dict(w.mshr_occupancy),
        "dram_bus_utilization": (
            w.counters.get("dram_bus_busy_cycles", 0)
            / (length * w.dram_channels)
            if w.dram_channels
            else 0.0
        ),
        "counters": dict(w.counters),
    }


def _attribution_window(w: Window) -> dict:
    """One window of ``extras['attribution']``, its blame included."""
    length = w.length

    def full_share(family: str) -> float:
        instances = w.queue_instances.get(family)
        if not instances:
            return 0.0
        return w.queue_full[family] / (length * instances)

    classes = dict(w.classes)
    sm_cycles = classes.pop("cycles", 0)
    blocked = w.counters.get("req_xbar_delivery_blocked_cycles", 0)
    window = {
        "index": w.index,
        "start": w.start,
        "end": w.end,
        "sm_cycles": sm_cycles,
        "classes": classes,
        "stalls": dict(w.stalls),
        "signals": {
            "dram": max(full_share("dram_schedq"), full_share("l2_missq")),
            "l2": full_share("l2_accessq"),
            "icnt": min(1.0, blocked / length),
            "l1": full_share("l1_missq"),
        },
    }
    window["blame"] = blame([window])
    return window


def blame(
    windows, threshold: float = DEFAULT_BLAME_THRESHOLD
) -> dict[str, int]:
    """Stall cycles per blame stage, summed over attribution windows.

    ``windows`` are the per-window dicts of ``extras['attribution']``
    (or of a profile document); only their ``stalls`` and ``signals``
    are read.  Each window's stalled cycles go, winner-take-all, to the
    deepest stage whose signal reaches ``threshold``; with none
    congested, a full L1 miss queue blames ``l1`` and anything else
    ``mem_latency``.
    """
    totals = dict.fromkeys(BLAME_STAGES, 0)
    for window in windows:
        signals = window["signals"]
        congested = next(
            (stage for stage in ("dram", "l2", "icnt")
             if signals[stage] >= threshold),
            None,
        )
        for cause, stalled in window["stalls"].items():
            if stalled > 0:
                local = "l1" if cause in _QUEUE_CAUSES else "mem_latency"
                totals[congested or local] += stalled
    return totals


class WindowSampler:
    """Records windowed deltas of every observation hook.

    Parameters
    ----------
    sim:
        The simulator whose components are read (through their
        ``queues``, ``mshrs`` and ``counters`` hooks).
    window:
        Window length in core cycles.
    max_windows:
        Ring-buffer depth; when exceeded, the oldest window is dropped
        and counted in :attr:`dropped`.
    """

    def __init__(
        self,
        sim,
        *,
        window: int = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if window < 1:
            raise UsageError(f"telemetry window must be >= 1, got {window}")
        if max_windows < 1:
            raise UsageError(
                f"telemetry max_windows must be >= 1, got {max_windows}"
            )
        self._sim = sim
        self.window = window
        self.max_windows = max_windows
        self._windows: deque[Window] = deque(maxlen=max_windows)
        #: Windows evicted from the ring buffer (oldest first).
        self.dropped = 0
        self._window_start = 0
        self._index = 0
        self._finalized = False
        #: family -> [StatQueue, ...]; None until the first capture.
        self._queues: dict[str, list] | None = None
        #: family -> [MSHRTable, ...] discovered through mshrs().
        self._mshrs: dict[str, list] = {}
        #: family -> number of queue instances.
        self._instances: dict[str, int] = {}
        # Cumulative snapshots at the previous window boundary.
        self._prev_queue: dict[str, tuple[int, int, int, int]] = {}
        self._prev_counters: dict[str, float] = {}
        # Exact run-level blame (independent of the window ring).
        self._blame_totals = dict.fromkeys(BLAME_STAGES, 0)

    @classmethod
    def attach(
        cls,
        gpu,
        *,
        window: int = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> "WindowSampler":
        """Attach a new sampler to a built (not yet run) GPU model."""
        sampler = cls(gpu.sim, window=window, max_windows=max_windows)
        gpu.sim.attach_observer(sampler)
        return sampler

    def _scan(self) -> None:
        """Discover the queues and MSHR tables through the hooks."""
        self._queues = {}
        for component in self._sim.components:
            for family, queue in component.queues():
                self._queues.setdefault(family, []).append(queue)
            for family, table in component.mshrs():
                self._mshrs.setdefault(family, []).append(table)
        self._instances = {
            family: len(queues) for family, queues in self._queues.items()
        }

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
    def _capture(self, boundary: int) -> None:
        if self._queues is None:
            self._scan()
        length = boundary - self._window_start
        if length <= 0:
            return

        totals: dict[str, float] = {}
        channels = 0
        for component in self._sim.components:
            for name, value in component.counters():
                totals[name] = totals.get(name, 0) + value
                if name == "dram_bus_busy_cycles":
                    channels += 1
        deltas = {
            name: value - self._prev_counters.get(name, 0)
            for name, value in totals.items()
        }
        self._prev_counters = totals

        full: dict[str, int] = {}
        busy: dict[str, int] = {}
        rejections: dict[str, int] = {}
        pushes: dict[str, int] = {}
        depth: dict[str, float] = {}
        for family, queues in self._queues.items():
            now = (
                sum(q.full_cycles(boundary) for q in queues),
                sum(q.busy_cycles(boundary) for q in queues),
                sum(q.rejections for q in queues),
                sum(q.pushes for q in queues),
            )
            prev = self._prev_queue.get(family, (0, 0, 0, 0))
            (full[family], busy[family], rejections[family],
             pushes[family]) = (n - p for n, p in zip(now, prev))
            self._prev_queue[family] = now
            depth[family] = sum(
                len(q) / q.capacity for q in queues
            ) / len(queues)

        record = Window(
            index=self._index,
            start=self._window_start,
            end=boundary,
            classes=_group(deltas, CLASS_PREFIX),
            stalls=_group(deltas, STALL_PREFIX),
            counters={
                name: value for name, value in deltas.items()
                if not name.startswith((STALL_PREFIX, CLASS_PREFIX))
            },
            queue_full=full,
            queue_busy=busy,
            queue_rejections=rejections,
            queue_pushes=pushes,
            queue_instances=self._instances,
            queue_depth=depth,
            mshr_occupancy={
                family: sum(len(t) / t.capacity for t in tables) / len(tables)
                for family, tables in self._mshrs.items()
            },
            dram_channels=channels,
        )
        for stage, stalled in _attribution_window(record)["blame"].items():
            self._blame_totals[stage] += stalled
        if len(self._windows) == self.max_windows:
            self.dropped += 1  # deque evicts the oldest on append
        self._windows.append(record)
        self._index += 1
        self._window_start = boundary

    # ------------------------------------------------------------------
    # the two views
    # ------------------------------------------------------------------
    @property
    def windows(self) -> list[Window]:
        """Retained records, oldest first."""
        return list(self._windows)

    def _retained(self, max_windows: int | None) -> tuple[int, int, list]:
        """The view's ring depth, dropped count and retained records."""
        max_windows = max_windows or self.max_windows
        kept = list(self._windows)[-max_windows:]
        return max_windows, self.dropped + len(self._windows) - len(kept), kept

    def timeline(self, max_windows: int | None = None) -> dict:
        """``RunMetrics.extras['timeline']``: the newest ``max_windows``
        windows (default: the sampler's depth) as time series."""
        max_windows, dropped, kept = self._retained(max_windows)
        return {
            "window": self.window,
            "max_windows": max_windows,
            "dropped": dropped,
            "queue_families": list(self._queues or ()),
            "windows": [_timeline_window(w) for w in kept],
        }

    def attribution(self, max_windows: int | None = None) -> dict:
        """``RunMetrics.extras['attribution']``: run-level cycle classes,
        stalls and blame, plus the newest ``max_windows`` windows."""
        max_windows, dropped, kept = self._retained(max_windows)
        classes = _group(self._prev_counters, CLASS_PREFIX)
        sm_cycles = classes.pop("cycles", 0)
        return {
            "window": self.window,
            "max_windows": max_windows,
            "dropped": dropped,
            "blame_threshold": DEFAULT_BLAME_THRESHOLD,
            "sm_cycles": sm_cycles,
            "classes": classes,
            "stalls": _group(self._prev_counters, STALL_PREFIX),
            "blame": dict(self._blame_totals),
            "conserved": sum(classes.values()) == sm_cycles,
            "windows": [_attribution_window(w) for w in kept],
        }
