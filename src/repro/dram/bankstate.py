"""Per-bank DRAM state.

Each bank tracks its open row and the cycle until which it is busy with the
current access (including the data transfer).  Service latency for a new
access depends on the row-buffer state:

* **row hit** — the requested row is open: CAS latency only.
* **row closed** — no row open: activate (tRCD) + CAS.
* **row conflict** — a different row is open: precharge (tRP) + activate
  (tRCD) + CAS.

Storage layout
--------------

The timing-critical state lives in a :class:`BankFile`: flat integer
lists (``busy_until``, ``open_row``) indexed by bank, which the
controller and the scheduling policies scan every cycle without touching
a Python object per bank.  :class:`BankState` is a property-backed *view*
of one slot — the stable per-bank interface used by statistics, tests and
debugging; mutations through a view are immediately visible to the flat
vectors and vice versa.
"""

from __future__ import annotations

from repro.sim.config import DRAMConfig

#: ``open_row`` sentinel for a closed (precharged) bank.  Real row ids are
#: non-negative, so equality against a request's row never matches it.
NO_ROW = -1


class BankFile:
    """Flat per-bank state vectors for one DRAM channel."""

    __slots__ = (
        "n_banks",
        "busy_until",
        "open_row",
        "row_hits",
        "row_conflicts",
        "row_closed",
        "views",
    )

    def __init__(self, n_banks: int, make_views: bool = True) -> None:
        self.n_banks = n_banks
        #: Cycle until which each bank is busy with its current command.
        self.busy_until = [0] * n_banks
        #: Open row per bank (:data:`NO_ROW` = closed).
        self.open_row = [NO_ROW] * n_banks
        #: Row-buffer outcome statistics.
        self.row_hits = [0] * n_banks
        self.row_conflicts = [0] * n_banks
        self.row_closed = [0] * n_banks
        #: Per-bank object views (``channel.banks[i]``).
        self.views = (
            [BankState(i, self) for i in range(n_banks)] if make_views else []
        )

    def min_busy(self) -> int:
        """Earliest cycle at which any bank's timing expires."""
        return min(self.busy_until)

    def lockout(self, until: int) -> None:
        """Refresh: extend every bank's busy window and close its row."""
        self.busy_until[:] = [max(busy, until) for busy in self.busy_until]
        self.open_row[:] = [NO_ROW] * self.n_banks


class BankState:
    """View of one bank's slot in a :class:`BankFile`.

    Constructed standalone (``BankState(0)``) it owns a private
    single-slot file, preserving the original value-object behaviour for
    unit tests and ad-hoc use.
    """

    __slots__ = ("bank_id", "_file", "_slot")

    def __init__(self, bank_id: int, file: BankFile | None = None) -> None:
        self.bank_id = bank_id
        if file is None:
            self._file = BankFile(1, make_views=False)
            self._slot = 0
        else:
            self._file = file
            self._slot = bank_id

    # -- flat-vector accessors -----------------------------------------
    @property
    def open_row(self) -> int | None:
        row = self._file.open_row[self._slot]
        return None if row < 0 else row

    @open_row.setter
    def open_row(self, row: int | None) -> None:
        self._file.open_row[self._slot] = NO_ROW if row is None else row

    @property
    def busy_until(self) -> int:
        return self._file.busy_until[self._slot]

    @busy_until.setter
    def busy_until(self, cycle: int) -> None:
        self._file.busy_until[self._slot] = cycle

    @property
    def row_hits(self) -> int:
        return self._file.row_hits[self._slot]

    @row_hits.setter
    def row_hits(self, value: int) -> None:
        self._file.row_hits[self._slot] = value

    @property
    def row_conflicts(self) -> int:
        return self._file.row_conflicts[self._slot]

    @row_conflicts.setter
    def row_conflicts(self, value: int) -> None:
        self._file.row_conflicts[self._slot] = value

    @property
    def row_closed(self) -> int:
        return self._file.row_closed[self._slot]

    @row_closed.setter
    def row_closed(self, value: int) -> None:
        self._file.row_closed[self._slot] = value

    # -- behaviour ------------------------------------------------------
    def ready(self, now: int) -> bool:
        """Whether the bank can start a new access at cycle ``now``."""
        return now >= self.busy_until

    def is_row_hit(self, row: int) -> bool:
        return self.open_row == row

    def access_latency(self, row: int, timing: DRAMConfig) -> int:
        """Command latency (excluding data transfer) to access ``row``."""
        open_row = self._file.open_row[self._slot]
        if open_row == row:
            return timing.t_cas
        if open_row < 0:
            return timing.t_rcd + timing.t_cas
        return timing.t_rp + timing.t_rcd + timing.t_cas

    def record_access(self, row: int) -> None:
        """Update row-state statistics for an access about to start."""
        open_row = self._file.open_row[self._slot]
        if open_row == row:
            self._file.row_hits[self._slot] += 1
        elif open_row < 0:
            self._file.row_closed[self._slot] += 1
        else:
            self._file.row_conflicts[self._slot] += 1

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_conflicts + self.row_closed

    @property
    def row_hit_rate(self) -> float:
        total = self.accesses
        return self.row_hits / total if total else 0.0
