"""Miss Status Holding Registers.

An MSHR table tracks outstanding misses by line.  A second miss to a
pending line *merges* into the existing entry (up to ``max_merge``
requesters) instead of issuing redundant downstream traffic.  Exhausting
either the entry count or an entry's merge slots stalls the requester —
the paper's point 2: "High latencies of outstanding miss requests lead to
prolonged contention of cache resources such as MSHRs ... succeeding
requests get serialized and have to wait for outstanding misses to
complete and relinquish the resources."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError, SimulationError
from repro.mem.request import MemoryRequest
from repro.utils.stats import IntervalTracker


class MSHRProbe(enum.Enum):
    """Outcome of probing the table for a line."""

    #: No entry for the line; a new one may be allocated (if capacity left).
    ABSENT = "absent"
    #: Entry exists with merge capacity.
    MERGEABLE = "mergeable"
    #: Entry exists but its merge slots are exhausted.
    ENTRY_FULL = "entry_full"


@dataclass(slots=True)
class MSHREntry:
    """Bookkeeping for one outstanding line."""

    line: int
    allocated_at: int
    requests: list[MemoryRequest] = field(default_factory=list)
    #: True when any merged request is a store (fill installs dirty).
    has_store: bool = False


class MSHRTable:
    """Fixed-capacity miss status holding register file."""

    def __init__(self, name: str, entries: int, max_merge: int) -> None:
        if entries < 1:
            raise ConfigError(f"{name}: MSHR entries must be >= 1")
        if max_merge < 1:
            raise ConfigError(f"{name}: MSHR max_merge must be >= 1")
        self.name = name
        self.capacity = entries
        self.max_merge = max_merge
        self._entries: dict[int, MSHREntry] = {}
        #: Entries allocated over the run (len == allocations - releases).
        self.allocations: int = 0
        #: Requests that merged into an existing entry.
        self.merges: int = 0
        #: Allocations refused because the table was full.
        self.alloc_fails: int = 0
        #: Merges refused because the entry's slots were exhausted.
        self.merge_fails: int = 0
        #: Entries released by fills.
        self.releases: int = 0
        self._full_time = IntervalTracker(f"{name}.full")
        self._busy_time = IntervalTracker(f"{name}.busy")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, line: int) -> MSHRProbe:
        entry = self._entries.get(line)
        if entry is None:
            return MSHRProbe.ABSENT
        if len(entry.requests) < self.max_merge:
            return MSHRProbe.MERGEABLE
        return MSHRProbe.ENTRY_FULL

    def allocate(self, request: MemoryRequest, now: int) -> bool:
        """Create a new entry for the request's line; False if full."""
        if request.line in self._entries:
            raise SimulationError(
                f"{self.name}: allocate for already-pending line {request.line:#x}"
            )
        if len(self._entries) >= self.capacity:
            self.alloc_fails += 1
            return False
        entry = MSHREntry(request.line, now, [request], request.is_write)
        self._entries[request.line] = entry
        self.allocations += 1
        occupancy = len(self._entries)
        if occupancy == 1:
            self._busy_time.update(now, True)
        if occupancy >= self.capacity:
            self._full_time.update(now, True)
        return True

    def merge(self, request: MemoryRequest, now: int) -> bool:
        """Attach the request to an existing entry; False if slots full."""
        entry = self._entries.get(request.line)
        if entry is None:
            raise SimulationError(
                f"{self.name}: merge into absent line {request.line:#x}"
            )
        if len(entry.requests) >= self.max_merge:
            self.merge_fails += 1
            return False
        entry.requests.append(request)
        entry.has_store = entry.has_store or request.is_write
        self.merges += 1
        return True

    def release(self, line: int, now: int) -> MSHREntry:
        """Remove and return the entry for ``line`` (fill arrived)."""
        entry = self._entries.pop(line, None)
        if entry is None:
            raise SimulationError(
                f"{self.name}: release of absent line {line:#x}"
            )
        self.releases += 1
        remaining = len(self._entries)
        if remaining >= self.capacity - 1:
            self._full_time.update(now, False)  # falling edge (was full)
        if not remaining:
            self._busy_time.update(now, False)
        return entry

    def pending(self, line: int) -> bool:
        return line in self._entries

    def entries(self):
        """Live entries, for sanitizer / debug inspection (read-only use)."""
        return self._entries.values()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def finalize(self, now: int) -> None:
        self._full_time.finalize(now)
        self._busy_time.finalize(now)

    def full_cycles(self, now: int | None = None) -> int:
        return self._full_time.total(now)

    def busy_cycles(self, now: int | None = None) -> int:
        return self._busy_time.total(now)

    def full_fraction(self, now: int | None = None) -> float:
        """Fraction of busy time spent at capacity."""
        busy = self.busy_cycles(now)
        return self.full_cycles(now) / busy if busy else 0.0
