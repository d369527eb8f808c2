"""The cycle-driven simulation engine.

The engine owns an ordered list of components and advances them one cycle at
a time.  Component order within a cycle is fixed at registration time; the
GPU model registers components front-to-back (cores, interconnect, memory
partitions) so requests can traverse at most one hop per cycle in the
forward direction while responses ride the same discipline backwards — the
same one-hop-per-cycle contract GPGPU-Sim's queue-based model provides.

Termination is delegated to a ``done`` predicate (usually "all warps
retired") guarded by ``max_cycles``; exceeding the guard raises
:class:`~repro.errors.CycleLimitExceeded` so mis-calibrated experiments fail
loudly instead of spinning.

There is one execution loop: every component is stepped on every edge of
its clock, and an event-horizon fast-forward jumps the windows in which
*all* components sleep (per their ``next_wake`` hints), replaying the
skipped cycles' counters through :meth:`Component.fast_forward`.  Results
are byte-identical with fast-forward on or off; observers or a ``None``
wake hint turn it off.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Protocol

from repro.errors import CycleLimitExceeded, SimulationError
from repro.sim.clock import CORE_CLOCK, ClockDomain
from repro.sim.component import WAKE_NEVER, Component


class SimObserver(Protocol):
    """Structural type for :meth:`Simulator.attach_observer` targets."""

    def on_cycle(self, cycle: int) -> None: ...

    def on_finalize(self, cycle: int) -> None: ...

#: Largest clock-period hyperperiod for which per-residue dispatch lists
#: are precomputed; beyond this the engine falls back to per-entry scans.
_MAX_DISPATCH_RESIDUES = 4096

#: Default cycle budget for a simulation run.  Shared by
#: :meth:`Simulator.run`, :meth:`repro.gpu.GPU.run` and
#: :func:`repro.core.metrics.run_kernel` so every entry point fails at the
#: same, single place when an experiment is mis-calibrated.
DEFAULT_MAX_CYCLES = 5_000_000


class Simulator:
    """Owns the clock and the ordered component list."""

    def __init__(self) -> None:
        self.cycle: int = 0
        self._entries: list[tuple[Component, ClockDomain]] = []
        self._finalized = False
        #: The fast flag of the active :meth:`run`, so components
        #: registered mid-run still receive :meth:`set_fast_mode`.
        self._run_fast: bool | None = None
        #: residue -> bound step methods ticking on that residue of the
        #: clock hyperperiod (preserving registration order); None until
        #: built, or permanently None when the hyperperiod is impractical.
        self._dispatch: list[list[Callable[[int], None]]] | None = None
        self._dispatch_mod: int = 0
        #: With every component on the core clock (hyperperiod 1) this is
        #: the single residue list, saving the modulo+index per cycle.
        self._dispatch_flat: list[Callable[[int], None]] | None = None
        self._wake_fns: list[Callable[[int], int | None]] | None = None
        #: Index of the component that vetoed the last fast-forward
        #: attempt; probed first, since a busy component usually stays
        #: busy, making the common no-jump case a single wake call.
        self._last_blocker: int = 0
        #: Do not re-attempt a fast-forward before this cycle.  Set after
        #: a failed attempt so sustained-activity stretches don't pay the
        #: wake-scan every cycle; skipping an attempt only delays a jump
        #: by a few naively-stepped cycles, which is result-neutral.
        self._ff_cooldown: int = 0
        #: Event-horizon fast-forward switch (see :meth:`run`).  On by
        #: default; auto-suspended while observers are attached because
        #: their ``on_cycle`` contract assumes every cycle fires.
        self.fast_forward_enabled: bool = True
        #: Cycles skipped by fast-forward jumps (diagnostic).
        self.cycles_fast_forwarded: int = 0
        #: Opt-in observers (e.g. the repro.analysis sanitizer); empty in
        #: normal runs so the per-cycle cost is one truthiness test.
        self._observers: list[SimObserver] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(
        self, component: Component, clock: ClockDomain = CORE_CLOCK
    ) -> Component:
        """Register ``component`` on ``clock``; returns the component."""
        self._entries.append((component, clock))
        self._dispatch = None
        self._dispatch_mod = 0
        self._dispatch_flat = None
        self._wake_fns = None
        if self._run_fast is not None:
            component.set_fast_mode(self._run_fast)
        return component

    @property
    def components(self) -> list[Component]:
        """Registered components in step order."""
        return [c for c, _ in self._entries]

    def attach_observer(self, observer: SimObserver) -> None:
        """Register an observer called at cycle and finalize boundaries.

        An observer provides ``on_cycle(cycle)`` — invoked after every
        component has stepped, at the quiescent point between cycles — and
        ``on_finalize(cycle)`` — invoked once when the simulation
        finalizes.  Observers may raise (the sanitizer raises
        :class:`~repro.errors.SanitizerError` on an invariant violation);
        the exception propagates out of :meth:`step` / :meth:`run`.
        """
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _build_dispatch(self) -> None:
        """Precompute per-residue step lists over the clock hyperperiod.

        Mixed clock domains must keep both the fast path *and* the
        registration order (the one-hop-per-cycle contract fixes which
        component acts first within a cycle), so the dispatch table holds
        one ordered list of bound ``step`` methods per residue of
        ``lcm(periods)``.  With every component on the core clock this
        collapses to a single list; a pathological hyperperiod falls back
        to the per-entry scan.
        """
        self._wake_fns = [c.next_wake for c, _ in self._entries]
        self._last_blocker = 0
        hyper = math.lcm(*(clk.period for _, clk in self._entries)) \
            if self._entries else 1
        if hyper > _MAX_DISPATCH_RESIDUES:
            self._dispatch = None
            self._dispatch_flat = None
            self._dispatch_mod = -1  # built; use the per-entry scan
            return
        self._dispatch = [
            [c.step for c, clk in self._entries if clk.ticks(residue)]
            for residue in range(hyper)
        ]
        self._dispatch_flat = self._dispatch[0] if hyper == 1 else None
        self._dispatch_mod = hyper

    def step(self) -> None:
        """Advance the simulation by one core cycle."""
        now = self.cycle
        if self._dispatch_mod == 0:
            self._build_dispatch()
        flat = self._dispatch_flat
        if flat is not None:
            for step in flat:
                step(now)
        elif (dispatch := self._dispatch) is not None:
            for step in dispatch[now % self._dispatch_mod]:
                step(now)
        else:
            for component, clock in self._entries:
                if clock.ticks(now):
                    component.step(now)
        self.cycle = now + 1
        if self._observers:
            for observer in self._observers:
                observer.on_cycle(now)

    def run(
        self,
        done: Callable[[], bool],
        max_cycles: int = DEFAULT_MAX_CYCLES,
        drain: bool = True,
    ) -> int:
        """Run until ``done()`` is true; returns the final cycle count.

        With ``drain`` (the default) the run continues past ``done()`` until
        every component reports idle, so in-flight requests (e.g. stores
        still percolating to DRAM) finish and statistics intervals close at
        their true ends.  Raises :class:`CycleLimitExceeded` if the budget
        runs out first.
        """
        if self._finalized:
            raise SimulationError("simulator already finalized; build a new one")
        fast = self.fast_forward_enabled and not self._observers
        self._run_fast = fast
        for component, _ in self._entries:
            component.set_fast_mode(fast)
        while not done():
            if self.cycle >= max_cycles:
                raise CycleLimitExceeded(max_cycles, "done() never satisfied")
            if fast and self._try_fast_forward(max_cycles):
                continue  # re-check the cycle budget at the new time
            self.step()
        finished_at = self.cycle
        if drain:
            while not all(c.is_idle() for c, _ in self._entries):
                if self.cycle >= max_cycles:
                    raise CycleLimitExceeded(
                        max_cycles, "drain never completed"
                    )
                if fast and self._try_fast_forward(max_cycles):
                    continue
                self.step()
        self.finalize()
        return finished_at

    def _try_fast_forward(self, limit: int) -> bool:
        """Jump ``self.cycle`` to the components' joint event horizon.

        Returns True when time advanced.  The jump happens only when every
        component publishes a wake cycle strictly beyond ``self.cycle`` —
        then no component would change any state in the skipped window, so
        only the per-cycle counters need replaying (via
        :meth:`Component.fast_forward`, with per-clock-domain tick counts).
        Any ``None`` hint vetoes fast-forward for good.  The horizon is
        clamped to ``limit`` so a cycle-budget overrun fires at the same
        cycle as the naive loop.
        """
        now = self.cycle
        if now < self._ff_cooldown:
            return False
        if self._dispatch_mod == 0:
            self._build_dispatch()
        fns = self._wake_fns
        horizon = WAKE_NEVER
        if fns:
            # Probe the last veto first: a component busy this cycle is
            # almost always busy the next, so the common no-jump case
            # costs one wake call instead of a full scan.
            blocker = self._last_blocker
            w = fns[blocker](now)
            if w is None:
                self.fast_forward_enabled = False
                return False
            if w <= now:
                self._ff_cooldown = now + 3
                return False
            horizon = w
            for i, wake in enumerate(fns):
                if i == blocker:
                    continue
                w = wake(now)
                if w is None:
                    self.fast_forward_enabled = False
                    return False
                if w <= now:
                    self._last_blocker = i
                    self._ff_cooldown = now + 3
                    return False
                if w < horizon:
                    horizon = w
        if horizon > limit:
            horizon = limit
        if horizon <= now:
            return False
        window = horizon - now
        for component, clock in self._entries:
            ticks = window if clock.period == 1 \
                else clock.ticks_in(now, horizon)
            if ticks:
                component.fast_forward(ticks)
        self.cycles_fast_forwarded += window
        self.cycle = horizon
        return True

    def finalize(self) -> None:
        """Close statistics intervals on every component (idempotent)."""
        if self._finalized:
            return
        for component, _ in self._entries:
            component.finalize(self.cycle)
        for observer in self._observers:
            observer.on_finalize(self.cycle)
        self._finalized = True
