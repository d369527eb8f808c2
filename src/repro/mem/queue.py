"""Finite queues with congestion statistics.

Every boundary between two memory-system components is a :class:`StatQueue`.
A full queue refuses pushes, and the refusing producer simply retries later:
that refusal *is* the back-pressure mechanism the paper studies, and the
queue records exactly the statistic Section III reports — the fraction of a
queue's *usage lifetime* (cycles during which it held at least one entry)
for which it was completely full.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.errors import ConfigError, SimulationError
from repro.utils.stats import IntervalTracker

T = TypeVar("T")


class StatQueue(Generic[T]):
    """Bounded FIFO with full-time / busy-time instrumentation.

    All mutating operations take the current cycle so occupancy intervals
    can be integrated event-wise (no per-cycle sampling).
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"queue {name!r} capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._items: deque[T] = deque()
        self._full_time = IntervalTracker(f"{name}.full")
        self._busy_time = IntervalTracker(f"{name}.busy")
        #: Number of successful pushes over the run.
        self.pushes: int = 0
        #: Number of pops/removes over the run.
        self.pops: int = 0
        #: Number of refused pushes (producer saw the queue full).
        self.rejections: int = 0
        #: Sum over pushes of occupancy at push time (for mean occupancy).
        self._occupancy_sum: int = 0

    # ------------------------------------------------------------------
    # queue operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def can_push(self) -> bool:
        return len(self._items) < self.capacity

    def push(self, item: T, now: int) -> bool:
        """Append ``item``; returns False (and counts a rejection) if full."""
        if len(self._items) >= self.capacity:
            self.rejections += 1
            return False
        self._items.append(item)
        self.pushes += 1
        occupancy = len(self._items)
        self._occupancy_sum += occupancy
        # Edge-only tracker updates: redundant calls are no-ops inside the
        # tracker anyway, but the call itself is hot (every queue boundary
        # crossing in the machine lands here).
        if occupancy == 1:
            self._busy_time.update(now, True)
        if occupancy >= self.capacity:
            self._full_time.update(now, True)
        return True

    def peek(self) -> T:
        if not self._items:
            raise SimulationError(f"peek on empty queue {self.name!r}")
        return self._items[0]

    def pop(self, now: int) -> T:
        if not self._items:
            raise SimulationError(f"pop on empty queue {self.name!r}")
        item = self._items.popleft()
        self.pops += 1
        remaining = len(self._items)
        if remaining >= self.capacity - 1:
            self._full_time.update(now, False)  # falling edge (was full)
        if not remaining:
            self._busy_time.update(now, False)
        return item

    def remove(self, item: T, now: int) -> None:
        """Remove ``item`` from anywhere in the queue (first ``==`` match).

        Used by out-of-order consumers such as the FR-FCFS DRAM scheduler;
        maintains the same occupancy statistics as :meth:`pop`.
        :class:`~repro.mem.request.MemoryRequest` compares by identity, so
        a request is never mistaken for a field-equal twin.
        """
        try:
            self._items.remove(item)
        except ValueError:
            raise SimulationError(
                f"remove of absent item from queue {self.name!r}"
            ) from None
        self.pops += 1
        remaining = len(self._items)
        if remaining >= self.capacity - 1:
            self._full_time.update(now, False)  # falling edge (was full)
        if not remaining:
            self._busy_time.update(now, False)

    def __iter__(self):
        return iter(self._items)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def finalize(self, now: int) -> None:
        """Close open measurement intervals at end of run."""
        self._full_time.finalize(now)
        self._busy_time.finalize(now)

    def full_cycles(self, now: int | None = None) -> int:
        """Cycles the queue spent completely full."""
        return self._full_time.total(now)

    def busy_cycles(self, now: int | None = None) -> int:
        """Usage lifetime: cycles the queue held at least one entry."""
        return self._busy_time.total(now)

    def full_fraction(self, now: int | None = None) -> float:
        """Fraction of the usage lifetime spent full (Section III metric)."""
        busy = self.busy_cycles(now)
        return self.full_cycles(now) / busy if busy else 0.0

    @property
    def mean_occupancy_at_push(self) -> float:
        """Average fill level observed by arriving entries."""
        return self._occupancy_sum / self.pushes if self.pushes else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StatQueue({self.name!r}, {len(self._items)}/{self.capacity})"
        )
