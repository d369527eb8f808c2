"""Opt-in dynamic sanitizer for the cycle-driven simulator.

A :class:`Sanitizer` registers as an observer on a
:class:`~repro.sim.engine.Simulator` (see ``Simulator.attach_observer``)
and as the creation listener of the run's
:class:`~repro.mem.request.RequestFactory`.  At the quiescent point after
every ``interval``-th cycle it walks the registered components through the
``queues`` / ``mshrs`` / ``inflight`` / ``counters`` hooks of
:class:`~repro.sim.component.Component` and proves:

* **request conservation** — every factory-created request is, at all
  times until it retires, present in exactly the containers the protocol
  allows: at most one *transit* container (a bounded queue, a pipeline
  register, a crossbar FIFO, a pending-response buffer) plus any number of
  MSHR *residences*; and present in at least one of them (a request found
  in neither was silently dropped).  A request marked retired may never
  reappear, and no request may occupy two transit containers at once
  (duplication).
* **timestamp monotonicity** — per-hop stamps never decrease and never
  exceed the current cycle.
* **MSHR integrity** — capacity, entry/merge accounting and leak detection
  (an entry whose merged requests have all retired).
* **queue bounds** — occupancy within capacity and consistent with the
  push/pop counters.
* **cycle-accounting conservation** — any component whose ``counters``
  carry a ``class.`` group keeps its accounting classes summing exactly
  to its total stepped cycles (the attribution partition never leaks or
  double-counts a cycle).
* **forward progress** — while work is in flight, *something* must change
  within ``deadlock_cycles`` cycles (a request created or retired, or a
  queue pushed/popped); otherwise the system is wedged and the sanitizer
  raises with a dump of every in-flight request and queue occupancy
  instead of letting the run spin to its cycle limit.

Violations raise :class:`~repro.errors.SanitizerError` carrying the
diagnostic snapshot.  The sanitizer is strictly observational: attaching
it never changes simulated behaviour, only adds checking cost.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.invariants import (
    cycle_accounting_violations,
    mshr_violations,
    queue_bound_violations,
    timestamp_violations,
)
from repro.errors import SanitizerError


class Sanitizer:
    """Checks simulator invariants at cycle boundaries.

    Parameters
    ----------
    sim:
        The simulator whose components are scanned.  Components added
        after construction are picked up automatically.
    factory:
        The run's request factory; when given, its creation listener is
        claimed so every request enters conservation tracking.  ``None``
        restricts checking to the structural invariants (queue bounds,
        MSHR integrity, timestamps of requests found in containers).
    interval:
        Check every ``interval``-th cycle.  1 proves the invariants at
        every cycle boundary; larger values trade detection latency for
        speed (a violation is still caught, just up to ``interval - 1``
        cycles late).
    deadlock_cycles:
        Cycles without any observable progress, while work is in flight,
        after which the run is declared wedged.  Must comfortably exceed
        the longest legitimate quiet stretch (DRAM timing plus crossbar
        serialization; the default is orders of magnitude above both).
    """

    def __init__(
        self,
        sim: Any,
        factory: Any = None,
        *,
        interval: int = 1,
        deadlock_cycles: int = 50_000,
    ) -> None:
        if interval < 1:
            raise SanitizerError(
                f"sanitizer interval must be >= 1, got {interval}",
                invariant="configuration",
            )
        if deadlock_cycles < 1:
            raise SanitizerError(
                f"deadlock_cycles must be >= 1, got {deadlock_cycles}",
                invariant="configuration",
            )
        self._sim = sim
        self._interval = interval
        self._deadlock_cycles = deadlock_cycles
        #: rid -> request, for every created-but-not-yet-retired request.
        self._live: dict[int, object] = {}
        self.created = 0
        self.retired = 0
        self.checks_run = 0
        self._progress_sig: tuple[int, int, int] | None = None
        self._progress_cycle = 0
        if factory is not None:
            factory.listener = self.on_create

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls, gpu: Any, *, interval: int = 1, deadlock_cycles: int = 50_000
    ) -> "Sanitizer":
        """Attach a new sanitizer to a built (not yet run) GPU model."""
        sanitizer = cls(
            gpu.sim,
            gpu.factory,
            interval=interval,
            deadlock_cycles=deadlock_cycles,
        )
        gpu.sim.attach_observer(sanitizer)
        return sanitizer

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------
    def on_create(self, request: Any) -> None:
        """Factory listener: register a request for conservation tracking."""
        if request.rid in self._live:
            self._fail(
                f"request id {request.rid} allocated twice",
                invariant="request-conservation",
            )
        self._live[request.rid] = request
        self.created += 1

    def on_cycle(self, now: int) -> None:
        """Engine hook: run the checks at epoch boundaries."""
        if self._interval > 1 and (now + 1) % self._interval:
            return
        self.check(now)

    def on_finalize(self, now: int) -> None:
        """Engine hook: final conservation accounting at end of run."""
        self.check(now)
        if self._live:
            self._fail(
                f"{len(self._live)} request(s) never retired by end of run",
                invariant="request-conservation",
                cycle=now,
                requests=tuple(self._live.values()),
            )

    # ------------------------------------------------------------------
    # the check itself
    # ------------------------------------------------------------------
    def check(self, now: int) -> None:
        """Prove every invariant against the current system state."""
        self.checks_run += 1
        queues, mshrs, transit = self._scan()

        problems = queue_bound_violations(queues)
        for table in mshrs:
            problems.extend(mshr_violations(table))
        for component in self._sim.components:
            problems.extend(cycle_accounting_violations(component))

        # Occurrence map over transit containers, by object identity.
        seen: dict[int, tuple[object, list[str]]] = {}
        for location, request in transit:
            entry = seen.get(id(request))
            if entry is None:
                seen[id(request)] = (request, [location])
            else:
                entry[1].append(location)
        for request, locations in seen.values():
            if len(locations) > 1:
                problems.append(
                    f"request #{request.rid} duplicated across transit "
                    f"containers: {', '.join(locations)}"
                )
            if getattr(request, "retired", False):
                problems.append(
                    f"request #{request.rid} already retired but still in "
                    f"{', '.join(locations)}"
                )
            problems.extend(timestamp_violations(request, now))

        # Residence: requests parked in MSHR entries.
        resident: set[int] = set()
        for table in mshrs:
            for entry in table.entries():
                for request in entry.requests:
                    resident.add(id(request))
                    if id(request) not in seen:
                        problems.extend(timestamp_violations(request, now))

        # Conservation: prune retirements, then demand every live request
        # be findable somewhere.
        for rid in [
            rid for rid, req in self._live.items() if req.retired
        ]:
            del self._live[rid]
            self.retired += 1
        lost = [
            request
            for request in self._live.values()
            if id(request) not in seen and id(request) not in resident
        ]
        if lost:
            problems.append(
                f"{len(lost)} live request(s) found in no container "
                "(silently dropped): "
                + ", ".join(f"#{request.rid}" for request in lost[:8])
            )

        if problems:
            self._fail(
                "; ".join(problems[:4])
                + (f"; ... {len(problems) - 4} more" if len(problems) > 4 else ""),
                invariant="epoch-check",
                cycle=now,
                requests=tuple(req for req, _ in seen.values()),
                queues=queues,
            )

        self._check_progress(now, queues, transit)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _scan(
        self,
    ) -> tuple[list[Any], list[Any], list[tuple[str, object]]]:
        """Walk the component list through the observation hooks."""
        queues: list[Any] = []
        mshrs: list[Any] = []
        transit: list[tuple[str, object]] = []
        for component in self._sim.components:
            for _family, queue in component.queues():
                queues.append(queue)
                for request in queue:
                    transit.append((queue.name, request))
            mshrs.extend(table for _family, table in component.mshrs())
            for request in component.inflight():
                transit.append((component.name, request))
        return queues, mshrs, transit

    def _check_progress(
        self,
        now: int,
        queues: list[Any],
        transit: list[tuple[str, object]],
    ) -> None:
        busy = bool(self._live) or bool(transit)
        if not busy:
            self._progress_sig = None
            self._progress_cycle = now
            return
        signature = (
            self.created,
            self.retired,
            sum(queue.pushes + queue.pops for queue in queues),
        )
        if signature != self._progress_sig:
            self._progress_sig = signature
            self._progress_cycle = now
            return
        if now - self._progress_cycle >= self._deadlock_cycles:
            self._fail(
                f"no forward progress for {now - self._progress_cycle} "
                f"cycles with {len(self._live)} request(s) in flight",
                invariant="forward-progress",
                cycle=now,
                requests=tuple(self._live.values()),
                queues=queues,
            )

    def _fail(
        self,
        message: str,
        *,
        invariant: str,
        cycle: int | None = None,
        requests: tuple[Any, ...] = (),
        queues: Any = (),
    ) -> None:
        raise SanitizerError(
            message,
            invariant=invariant,
            cycle=cycle,
            requests=requests,
            queue_occupancies=tuple(
                (queue.name, len(queue), queue.capacity) for queue in queues
            ),
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Tracked requests not yet observed retiring."""
        return len(self._live)

    def stats(self) -> dict[str, int]:
        """Counters for reports (e.g. ``RunMetrics.extras``)."""
        return {
            "checks_run": self.checks_run,
            "requests_tracked": self.created,
            "requests_retired": self.retired,
            "requests_in_flight": len(self._live),
        }
