"""DRAM channel controller (one per memory partition).

Pipeline per cycle:

1. retire finished accesses — reads into the return queue towards L2
   (head-of-line stall when that queue is full), writes complete silently;
2. pull requests from the partition's L2 miss queue into the Table I
   *scheduler queue* (the structure whose full-time Section III reports);
3. issue one DRAM command chosen by the scheduling policy: a CAS dequeues
   the request and books its line transfer on the data bus
   (``line_bytes / (bus_bytes * data_rate)`` cycles — the Table I
   bus-width lever); a precharge+activate opens a row while the request
   *stays in the scheduler queue* — so a loaded channel shows up as a full
   scheduler queue, exactly what Section III measures.

A CAS only issues when the data bus is booked at most a small window
ahead, and reads only while in-flight reads leave headroom in the return
queue, so completions can never wedge the controller.
"""

from __future__ import annotations

from repro.dram.bankstate import BankFile
from repro.dram.scheduler import ACTIVATE, make_scheduler
from repro.mem.address import AddressMapper
from repro.mem.pipe import DelayPipe
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.config import GPUConfig
from repro.utils.stats import Accumulator


class DRAMChannel(Component):
    """One GDDR channel plus its controller."""

    def __init__(
        self,
        name: str,
        config: GPUConfig,
        mapper: AddressMapper,
        partition_id: int,
    ) -> None:
        self.name = name
        self.partition_id = partition_id
        self._config = config
        self._mapper = mapper
        cfg = config.dram
        self.sched_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.sched_queue", cfg.sched_queue_depth
        )
        self.return_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.return_queue", cfg.return_queue_depth
        )
        #: Flat per-bank timing vectors (the per-cycle scan structure);
        #: ``self.banks`` exposes the per-bank object views.
        self.bank_file = BankFile(cfg.banks)
        self.banks = self.bank_file.views
        self._scheduler = make_scheduler(cfg.scheduler)
        self._transfer_cycles = config.dram_transfer_cycles
        self._bus_free_at = 0
        self._completions: DelayPipe[MemoryRequest] = DelayPipe(
            f"{name}.completions", 0
        )
        self._reads_in_flight = 0
        self._next_refresh = cfg.refresh_interval or None
        #: Retry-on-change memo for a failed command selection (fast mode
        #: only): ``select`` is not re-run before ``_select_until`` while
        #: the channel epoch still equals ``_select_epoch``.
        self._fast_mode = False
        self._select_until = 0
        self._select_epoch = -1
        #: Set by the GPU wiring: the L2 slice whose miss queue we drain.
        self.l2 = None
        # --- statistics ---
        self.reads: int = 0
        self.writes: int = 0
        self.refreshes: int = 0
        self.bus_busy_cycles: int = 0
        self.service_latency = Accumulator(f"{name}.service_latency")

    # ------------------------------------------------------------------
    # component protocol
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        # Fast path: controller completely idle and nothing to admit.
        if (
            not self.sched_queue._items
            and not self._completions._fifo
            and (self.l2 is None or not self.l2.miss_queue._items)
        ):
            return
        if self._next_refresh is not None and now >= self._next_refresh:
            self._refresh(now)
        self._retire(now)
        self._admit(now)
        self._issue(now)

    def set_fast_mode(self, enabled: bool) -> None:
        super().set_fast_mode(enabled)
        self._fast_mode = enabled
        self._select_until = 0

    def next_wake(self, now: int) -> int:
        # Mirrors step(): the idle fast path defers even refreshes, so an
        # idle channel sleeps until external input (the L2 miss queue,
        # which the L2's own hint covers).
        if self.l2 is not None and self.l2.miss_queue._items:
            return now
        wake = WAKE_NEVER
        completions = self._completions._fifo
        if completions:
            ready = completions[0][0]
            if ready <= now:
                return now  # a completion retires (or head-of-line blocks)
            wake = ready
        if self.sched_queue._items:
            # A command can issue as soon as any bank's timing expires; the
            # bus-booking window only ever delays a CAS past that point.
            busy = self.bank_file.min_busy()
            if busy <= now:
                return now
            if busy < wake:
                wake = busy
        if wake != WAKE_NEVER and self._next_refresh is not None:
            # Busy channels take refresh lockouts at their due cycle.
            refresh = self._next_refresh
            if refresh <= now:
                return now
            if refresh < wake:
                wake = refresh
        return wake

    def _refresh(self, now: int) -> None:
        """Lock every bank out for a refresh and close its row."""
        cfg = self._config.dram
        self.bank_file.lockout(now + cfg.refresh_cycles)
        self.refreshes += 1
        # Catch up if the channel idled through several intervals.
        while self._next_refresh <= now:
            self._next_refresh += cfg.refresh_interval

    def _retire(self, now: int) -> None:
        completions = self._completions._fifo
        return_items = self.return_queue._items
        while completions and completions[0][0] <= now:
            request = completions[0][1]
            if request.kind is AccessKind.WRITEBACK:
                completions.popleft()
                request.timestamps["dram_done"] = now
                request.retired = True  # writebacks terminate at DRAM
                self.writes += 1
            else:
                # LOADs and write-allocate STORE fetches both return data to
                # the L2 so their MSHR entries release.
                if len(return_items) >= self.return_queue.capacity:
                    break  # L2 fill path congested; hold completions
                completions.popleft()
                request.timestamps["dram_done"] = now
                self._reads_in_flight -= 1
                self.return_queue.push(request, now)

    def _admit(self, now: int) -> None:
        """Move one request per cycle from the L2 miss queue to the
        scheduler queue (back-pressure lands in the miss queue when the
        scheduler queue is full)."""
        if self.l2 is None:
            return
        miss_queue = self.l2.miss_queue
        if (
            miss_queue._items
            and len(self.sched_queue._items) < self.sched_queue.capacity
        ):
            request = miss_queue.pop(now)
            request.timestamps["dram_in"] = now
            # Cache the bank/row coordinates once; the scheduler's
            # first-ready scan consults them every cycle the request waits.
            request.dram_bank = self._mapper.dram_bank(request.line)
            request.dram_row = self._mapper.dram_row(request.line)
            self.sched_queue.push(request, now)

    def _channel_epoch(self) -> int:
        """Monotone count of events that can change a failed selection.

        Scheduler-queue pushes and pops change the candidate set (a CAS
        also moves reads in flight), return-queue pushes and pops move
        the read headroom (a retire also moves reads in flight), and a
        refresh closes every row.  Bank timing and open rows otherwise
        change only through a command, i.e. a successful selection.
        """
        sched = self.sched_queue
        ret = self.return_queue
        return sched.pushes + sched.pops + ret.pushes + ret.pops + self.refreshes

    def _issue(self, now: int) -> None:
        if not self.sched_queue._items:
            return
        if now < self._select_until and self._select_epoch == self._channel_epoch():
            # The last selection found nothing to issue, and neither its
            # inputs nor its timing horizon have moved since: it would
            # fail again, with no side effect to replay.
            return
        # Both command kinds need a bank whose timing has expired, so a
        # channel with every bank mid-access can skip the queue scan.
        bank_file = self.bank_file
        if bank_file.min_busy() > now:
            return
        timing = self._config.dram
        # The bus may be booked up to ``bus_window_transfers`` transfers
        # beyond the earliest possible data arrival (now + tCAS); measuring
        # from ``now`` alone would lock the channel whenever tCAS exceeds
        # the window.
        bus_window = timing.bus_window_transfers * self._transfer_cycles
        bus_gate_ok = self._bus_free_at - (now + timing.t_cas) <= bus_window
        # Reads also need headroom in the return queue for every read in
        # flight; writebacks return nothing.
        reads_ok = self._reads_in_flight < (
            self.return_queue.capacity - len(self.return_queue._items))
        choice = self._scheduler.select(
            self.sched_queue,
            bank_file.busy_until,
            bank_file.open_row,
            now,
            bus_gate_ok,
            reads_ok,
        )
        if choice is None:
            if self._fast_mode:
                self._select_epoch = self._channel_epoch()
                self._select_until = self._select_horizon(
                    now, bus_gate_ok, bus_window)
            return
        command, request = choice
        bank = request.dram_bank
        row = request.dram_row
        if command == ACTIVATE:
            # Precharge (if a row is open) + activate; the request stays in
            # the scheduler queue until its CAS.
            if bank_file.open_row[bank] < 0:
                bank_file.row_closed[bank] += 1
                bank_file.busy_until[bank] = now + timing.t_rcd
            else:
                bank_file.row_conflicts[bank] += 1
                bank_file.busy_until[bank] = now + timing.t_rp + timing.t_rcd
            bank_file.open_row[bank] = row
            request.timestamps.setdefault("dram_act", now)
            return
        # CAS: dequeue, book the data bus, schedule completion.
        if "dram_act" not in request.timestamps:
            bank_file.row_hits[bank] += 1
        data_start = max(now + timing.t_cas, self._bus_free_at)
        done = data_start + self._transfer_cycles
        self._bus_free_at = done
        self.bus_busy_cycles += self._transfer_cycles
        self.sched_queue.remove(request, now)
        self.service_latency.add(done - now)
        if request.kind is not AccessKind.WRITEBACK:
            self._reads_in_flight += 1
            self.reads += 1
        self._completions.insert_at(request, done)

    def _select_horizon(self, now: int, bus_gate_ok: bool, bus_window: int) -> int:
        """First cycle after ``now`` at which a failed selection can change
        without a channel-epoch event: a queued request's bank becomes
        ready, or the bus-booking gate opens."""
        until = WAKE_NEVER
        if not bus_gate_ok:
            until = self._bus_free_at - self._config.dram.t_cas - bus_window
        busy_until = self.bank_file.busy_until
        for request in self.sched_queue._items:
            ready = busy_until[request.dram_bank]
            if now < ready < until:
                until = ready
        return until

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return (
            self.sched_queue.empty
            and self.return_queue.empty
            and self._completions.empty
        )

    def finalize(self, now: int) -> None:
        self.sched_queue.finalize(now)
        self.return_queue.finalize(now)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def queues(self):
        return (
            ("dram_schedq", self.sched_queue),
            ("dram_returnq", self.return_queue),
        )

    def inflight(self):
        yield from self._completions

    def counters(self):
        return (
            ("dram_bus_busy_cycles", self.bus_busy_cycles),
            ("dram_reads", self.reads),
            ("dram_writes", self.writes),
        )

    @property
    def row_hit_rate(self) -> float:
        total = sum(b.accesses for b in self.banks)
        hits = sum(b.row_hits for b in self.banks)
        return hits / total if total else 0.0

    @property
    def total_accesses(self) -> int:
        return sum(b.accesses for b in self.banks)
