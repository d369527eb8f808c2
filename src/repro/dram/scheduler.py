"""DRAM command scheduling policies.

The controller issues one *command* per cycle per channel: either a CAS
(column access) that dequeues a request and books its data transfer, or a
precharge+activate that opens a row for a queued request (the request
stays queued until its CAS).  The policy picks which command:

* **FR-FCFS** (first-ready, first-come first-served) — the baseline, as in
  GPGPU-Sim: prefer the oldest request whose row is already open (a CAS /
  row hit); otherwise activate for the oldest request whose bank is free.
  Its effectiveness grows with the scheduler-queue depth (Table I scales
  16 -> 64): a deeper queue exposes more row hits and bank parallelism,
  which is why the paper lists queue depth as an '='-type parameter.
* **FCFS** — strictly serves the oldest request (activating its row if
  needed); the in-order baseline for ablations.

Policies scan flat per-bank lists (see :class:`repro.dram.bankstate.
BankFile`) and the bank/row coordinates the controller caches on each
request at admission (``request.dram_bank`` / ``request.dram_row``), so
the first-ready scan is index arithmetic with no per-bank objects or
address-mapper calls on the hot path.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest

#: Command kinds returned by a scheduler.
CAS = "cas"
ACTIVATE = "activate"


class DRAMScheduler:
    """Strategy object choosing the next DRAM command."""

    name = "base"

    def select(
        self,
        queue: StatQueue[MemoryRequest],
        busy_until: list[int],
        open_row: list[int],
        now: int,
        bus_ok: bool,
        reads_ok: bool,
    ) -> tuple[str, MemoryRequest] | None:
        """Pick ``(command, request)`` or None if nothing can issue.

        ``busy_until`` and ``open_row`` are the channel's flat per-bank
        lists; queued requests carry cached ``dram_bank`` / ``dram_row``
        coordinates.  A CAS candidate needs its bank ready
        (``now >= busy_until[bank]``) with the right row open, and passes
        the CAS gates: ``bus_ok`` (a bus slot within reach) and, unless it
        is a writeback, ``reads_ok`` (return-path headroom).  An activate
        candidate needs its bank ready with a different (or no) row open.
        """
        raise NotImplementedError


class FCFSScheduler(DRAMScheduler):
    """Serve strictly the oldest request."""

    name = "fcfs"

    def select(self, queue, busy_until, open_row, now, bus_ok, reads_ok):
        for request in queue._items:
            bank = request.dram_bank
            if now < busy_until[bank]:
                continue
            if open_row[bank] == request.dram_row:
                if bus_ok and (reads_ok or request.kind is AccessKind.WRITEBACK):
                    return (CAS, request)
                return None  # strict order: wait for the head's bus slot
            return (ACTIVATE, request)
        return None


class FRFCFSScheduler(DRAMScheduler):
    """First-ready FCFS: oldest row hit first, else oldest activate."""

    name = "frfcfs"

    def select(self, queue, busy_until, open_row, now, bus_ok, reads_ok):
        # One age-ordered pass classifies every request: the oldest
        # serviceable row hit returns immediately, while banks with
        # *pending* hits on their open row are flagged — those rows must
        # not be closed by an activate, or two conflicting requests would
        # thrash the bank while e.g. a bus-gated CAS waits.  Activate
        # candidates (oldest per ready bank) are filtered against the
        # complete pending-hit mask afterwards, which preserves the
        # two-pass semantics at half the scan cost.
        pending_hits = 0  # bank bitmask
        seen_activate = 0
        activates: list = []
        for request in queue._items:
            bank = request.dram_bank
            if open_row[bank] == request.dram_row:
                pending_hits |= 1 << bank
                if (
                    bus_ok
                    and now >= busy_until[bank]
                    and (reads_ok or request.kind is AccessKind.WRITEBACK)
                ):
                    return (CAS, request)
            else:
                bit = 1 << bank
                if not seen_activate & bit and now >= busy_until[bank]:
                    seen_activate |= bit
                    activates.append((bit, request))
        for bit, request in activates:
            if not pending_hits & bit:
                return (ACTIVATE, request)
        return None


_SCHEDULERS = {
    "fcfs": FCFSScheduler,
    "frfcfs": FRFCFSScheduler,
}


def make_scheduler(name: str) -> DRAMScheduler:
    """Instantiate a DRAM scheduling policy by name."""
    try:
        return _SCHEDULERS[name]()
    except KeyError:
        raise ConfigError(f"unknown DRAM scheduler {name!r}") from None
