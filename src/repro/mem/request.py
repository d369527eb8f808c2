"""Memory request objects.

A :class:`MemoryRequest` is created by an SM's coalescer for one cache-line
transaction and travels — as a single mutable object — through L1, the
crossbar, L2 and DRAM, collecting per-hop timestamps on the way.  The
timestamps power the paper's latency analysis: the Figure 1 discussion
("baseline memory latencies are critically higher than the ideal access
latencies") compares measured L1-miss round trips against unloaded L2/DRAM
latencies, and the per-hop deltas show *where* congestion adds time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class AccessKind(enum.Enum):
    """The kinds of memory transactions the hierarchy carries."""

    LOAD = "load"
    STORE = "store"
    #: Dirty line evicted from L2, headed for DRAM.
    WRITEBACK = "writeback"

    @property
    def is_write(self) -> bool:
        return self is not AccessKind.LOAD


@dataclass(slots=True, eq=False)
class MemoryRequest:
    """One line-sized memory transaction.

    ``line`` is the line *index* (byte address // line size); all routing
    and cache indexing operate on line indices.  Requests compare (and
    hash) by identity: two transactions with equal fields are still two
    transactions.
    """

    rid: int
    kind: AccessKind
    line: int
    sm_id: int
    warp_id: int
    #: Core cycle at which the SM handed the transaction to the L1.
    issued_at: int = 0
    #: Per-hop timestamps, keyed by hop name ("l1_miss", "l2_in", "l2_hit",
    #: "dram_in", "dram_done", "l2_out", "l1_fill", ...).  Each hop writes
    #: ``timestamps[hop] = now`` itself: no helper call on the request path.
    timestamps: dict[str, int] = field(default_factory=dict)
    #: True once the request is travelling back towards its SM.
    is_response: bool = False
    #: DRAM coordinates cached by the channel controller at admission
    #: (-1 = not yet computed); the FR-FCFS scan reads them every cycle
    #: for every queued request, far too hot for repeated address math.
    dram_bank: int = -1
    dram_row: int = -1
    #: Set by L2 when the request was a miss there (for statistics).
    l2_miss: bool = False
    #: True once the request has left the system for good (load handed back
    #: to its SM, store absorbed by a cache level, writeback drained by
    #: DRAM).  Set unconditionally at every terminal site; consumed by the
    #: :mod:`repro.analysis` sanitizer to prove request conservation.
    retired: bool = False

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    def hops(self) -> list[tuple[str, int]]:
        """Recorded ``(hop, cycle)`` pairs in chronological order.

        Ties (several hops stamped on the same cycle) keep recording
        order, so the sequence is the request's actual itinerary — the
        basis for :mod:`repro.telemetry` trace spans.
        """
        return sorted(self.timestamps.items(), key=lambda item: item[1])

    def latency(self, start_hop: str, end_hop: str) -> int | None:
        """Cycles between two recorded hops, or None if either is missing."""
        start = self.timestamps.get(start_hop)
        end = self.timestamps.get(end_hop)
        if start is None or end is None:
            return None
        return end - start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        direction = "resp" if self.is_response else "req"
        return (
            f"MemoryRequest(#{self.rid} {self.kind.value} {direction} "
            f"line={self.line:#x} sm={self.sm_id} warp={self.warp_id})"
        )


class RequestFactory:
    """Allocates uniquely-numbered requests for one simulation run."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        #: Optional callable invoked with every request created; used by the
        #: sanitizer to register requests for conservation tracking.
        self.listener = None

    def make(
        self,
        kind: AccessKind,
        line: int,
        sm_id: int,
        warp_id: int,
        now: int,
    ) -> MemoryRequest:
        request = MemoryRequest(
            rid=next(self._ids),
            kind=kind,
            line=line,
            sm_id=sm_id,
            warp_id=warp_id,
            issued_at=now,
        )
        if self.listener is not None:
            self.listener(request)
        return request
