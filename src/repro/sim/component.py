"""Component protocol for the cycle-driven simulator.

A component is anything stepped once per (its clock domain's) cycle.  The
engine calls :meth:`Component.step` with the current core-clock cycle; the
component performs one cycle of work — popping input queues, advancing
pipelines, pushing output queues — and returns.  Back-pressure is expressed
purely through finite queues: a component that cannot push its output simply
leaves the item where it is and retries on a later cycle.

Components also expose :meth:`finalize` (close open statistics intervals)
and :meth:`is_idle` (used by the engine to detect global quiescence and by
tests to assert drained state).

Observation
-----------
Four hooks let observers — the :mod:`repro.analysis` sanitizer, the
:mod:`repro.telemetry` probes and ``repro profile`` — read a component's
bookkeeping without knowing its concrete type:

* :meth:`Component.queues` and :meth:`Component.mshrs` yield
  ``(family, object)`` pairs for every bounded queue and MSHR table owned
  here.  The family label (``"l2_accessq"``, ``"l1_mshr"``) lets the
  telemetry probe aggregate the instances living on different components
  into one per-window series; the sanitizer ignores it.
* :meth:`Component.inflight` yields every request currently travelling
  through the component's private buffers (pipeline registers, crossbar
  FIFOs, pending-response lists; *not* MSHR residence, which the sanitizer
  reads from the tables themselves).
* :meth:`Component.counters` yields ``(name, cumulative int)`` pairs, all
  monotone, in three groups: plain counters (``"instructions"``,
  ``"l2_fills"``), stall causes under :data:`STALL_PREFIX` and the
  cycle-accounting partition under :data:`CLASS_PREFIX`.  Probes report
  per-window deltas.

The defaults yield nothing, so plain components need not care and
observation is strictly opt-in and free when nothing is attached.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

#: Wake hint meaning "idle until something external arrives".  Far beyond
#: any reachable cycle count, but small enough that arithmetic on it stays
#: in CPython's fast int range.
WAKE_NEVER = 1 << 62

#: :meth:`Component.counters` prefix of the memory-pipeline stall causes.
STALL_PREFIX = "stall."
#: :meth:`Component.counters` prefix of the cycle-accounting partition.
CLASS_PREFIX = "class."


class Component:
    """Base class for simulated hardware components."""

    #: Name used in statistics reports; subclasses should override.
    name: str = "component"

    def step(self, now: int) -> None:
        """Advance the component by one cycle (core-clock cycle ``now``)."""
        raise NotImplementedError

    def finalize(self, now: int) -> None:
        """Close any open measurement intervals at end of simulation."""

    def is_idle(self) -> bool:
        """True when the component holds no in-flight work."""
        return True

    # ------------------------------------------------------------------
    # event-horizon fast-forward hooks
    # ------------------------------------------------------------------
    def next_wake(self, now: int) -> int | None:
        """Earliest core cycle >= ``now`` at which stepping could matter.

        The contract backing :meth:`Simulator.run`'s fast-forward:

        * ``now`` — the component must step this cycle;
        * ``> now`` — stepping before that cycle is a no-op *provided no
          other component acts first* (the engine only skips when every
          component agrees, so a producer that would feed this component
          pins the horizon to ``now`` itself);
        * :data:`WAKE_NEVER` — idle until external input arrives;
        * ``None`` (the default) — no hint; disables fast-forward for the
          whole simulation, keeping ad-hoc components conservative.

        A hint must only depend on state that is stable while *every*
        component sleeps; per-cycle statistics for skipped cycles are
        replayed through :meth:`fast_forward`.
        """
        return None

    def fast_forward(self, cycles: int) -> None:
        """Account for ``cycles`` skipped cycles (clock-domain ticks).

        Called by the engine after a fast-forward jump, once per component,
        with the number of tick edges its clock domain would have seen.
        Implementations replicate exactly the per-cycle counters an idle
        :meth:`step` would have accumulated; the default assumes there are
        none.
        """

    def set_fast_mode(self, enabled: bool) -> None:
        """Tell the component whether fast-forward replay is permitted.

        Called by :meth:`Simulator.run` before the main loop with the same
        switch that governs global event-horizon jumps (user flag AND no
        observers attached).  Components with *component-local* skip
        optimisations (e.g. the SM's burst windows) gate them on this, so
        ``fast_forward=False`` runs — the determinism reference — and
        observed runs always execute the naive per-cycle path.  Default:
        ignore.
        """

    # ------------------------------------------------------------------
    # observation hooks
    # ------------------------------------------------------------------
    def queues(self) -> Iterable[tuple[str, Any]]:
        """``(family, StatQueue)`` pairs for every bounded queue owned here."""
        return ()

    def mshrs(self) -> Iterable[tuple[str, Any]]:
        """``(family, MSHRTable)`` pairs for every MSHR table owned here."""
        return ()

    def inflight(self) -> Iterable[Any]:
        """Requests held in transit buffers other than the above queues."""
        return ()

    def counters(self) -> Iterable[tuple[str, int]]:
        """``(name, cumulative value)`` monotone counters.

        Besides plain counters, two prefixed groups:

        * :data:`STALL_PREFIX` + cause — stall cycles per stable cause key
          (the ``AccessResult`` stall values: ``"stall_mshr_full"``,
          ``"stall_merge_full"``, ``"stall_missq_full"``);
        * :data:`CLASS_PREFIX` + class — an exhaustive cycle-accounting
          partition, including ``class.cycles`` (total stepped cycles).
          The contract, enforced by the sanitizer and the attribution
          tests, is *exact conservation*: the other classes sum to
          ``class.cycles`` at every cycle boundary, with no overlap and
          no gap.
        """
        return ()
