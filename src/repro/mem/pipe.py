"""Fixed-latency delay pipes.

A :class:`DelayPipe` models a fully-pipelined fixed-latency structure with
unbounded width: items inserted at cycle ``t`` become ready at ``t + L``.
It is used for cache hit/fill latencies, the L2 bank pipelines, DRAM
completions, the ring's in-flight set and the Figure 1 magic-memory
responder.  Items are held as ``(ready, item)`` pairs in a FIFO kept in
``(ready, insertion)`` order.  Almost every producer adds a constant
latency (or, for DRAM, books completions at a bus-free time that only
grows), so an insert is an append; an out-of-order insert (the ring's
path-dependent arrivals) is placed after every entry that is ready no
later.  Because the head is always the earliest item, idle pipes cost
one comparison per cycle.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import itemgetter
from typing import Generic, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")

_READY = itemgetter(0)


class DelayPipe(Generic[T]):
    """Unbounded fixed-latency pipeline."""

    def __init__(self, name: str, latency: int) -> None:
        if latency < 0:
            raise ConfigError(f"pipe {name!r} latency must be >= 0")
        self.name = name
        self.latency = latency
        #: ``(ready, item)`` pairs in ``(ready, insertion)`` order.
        self._fifo: deque[tuple[int, T]] = deque()

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def empty(self) -> bool:
        return not self._fifo

    def __iter__(self):
        """Iterate over the in-flight items, head first."""
        return (item for _, item in self._fifo)

    def insert(self, item: T, now: int, extra_delay: int = 0) -> None:
        """Insert ``item``; it becomes ready at ``now + latency + extra``."""
        ready = now + self.latency + extra_delay
        fifo = self._fifo
        if fifo and fifo[-1][0] > ready:
            insort(fifo, (ready, item), key=_READY)
        else:
            fifo.append((ready, item))

    def insert_at(self, item: T, ready_cycle: int) -> None:
        """Insert ``item`` with an absolute ready time.

        Ties keep insertion order: the item goes after every entry whose
        ready time is ``<= ready_cycle``.
        """
        fifo = self._fifo
        if fifo and fifo[-1][0] > ready_cycle:
            insort(fifo, (ready_cycle, item), key=_READY)
        else:
            fifo.append((ready_cycle, item))

    def ready(self, now: int) -> bool:
        """Whether the head item is ready at cycle ``now``."""
        return bool(self._fifo) and self._fifo[0][0] <= now

    def next_ready_time(self) -> int | None:
        """Ready cycle of the head item, or None when the pipe is empty.

        The wake hint backing the engine's event-horizon fast-forward.
        """
        return self._fifo[0][0] if self._fifo else None

    def peek(self) -> T:
        """The head item (raises IndexError when empty)."""
        return self._fifo[0][1]

    def pop(self) -> T:
        """Remove and return the head item (caller checked :meth:`ready`)."""
        return self._fifo.popleft()[1]

    def drain_ready(self, now: int) -> list[T]:
        """Pop every item ready at ``now``, in ``(ready, insertion)`` order."""
        fifo = self._fifo
        out: list[T] = []
        while fifo and fifo[0][0] <= now:
            out.append(fifo.popleft()[1])
        return out
