"""One memory partition's L2 slice.

Banked, write-back, write-allocate, with the full Table I resource set:

* **L2 access queue** — filled by the request crossbar, drained by the
  banks (at most one accept per bank per cycle, head-of-line order).
* **banks** — pipelined tag/data access of ``bank_latency`` cycles; a bank
  whose completed request cannot acquire downstream resources (data port,
  response queue, MSHR, miss queue, replaceable line) holds at its output
  register, eventually filling its pipeline and refusing new input, which
  backs the access queue up into the crossbar — the paper's back-pressure
  cascade.
* **L2 data port** — every line-carrying response occupies the partition's
  return port for ``ceil(line / data_port_bytes)`` cycles.
* **MSHR / miss queue / response queue** — per Table I.

Fills returning from DRAM install into a way *reserved at miss time*
(dirty victims generate writeback traffic to DRAM at miss time as well),
then fan out one response per merged requester through the data port.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.mshr import MSHRProbe, MSHRTable
from repro.cache.tag_array import TagArray
from repro.mem.address import AddressMapper
from repro.mem.pipe import DelayPipe
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.config import GPUConfig

#: Why :meth:`L2Slice._resolve` could not retire a bank output.
#: A load hit waiting for the data port or a response-queue slot.
_BLOCKED_HIT = 1
#: A miss whose set has every way reserved (counted per retry).
_BLOCKED_RESERVE = 2
#: A miss waiting for an MSHR entry, merge slot or miss-queue slots.
_BLOCKED_MISS = 3


@dataclass(slots=True)
class _Bank:
    """One L2 bank: a fixed-latency pipeline plus an output register."""

    pipe: DelayPipe[MemoryRequest]
    depth: int
    output: MemoryRequest | None = None
    accepted_this_cycle: bool = False
    #: Cycles the output register held a request it could not retire.
    blocked_cycles: int = 0
    #: Retry-on-change memo for a blocked output (fast mode only): the
    #: output is not re-resolved before ``retry_until`` while the slice
    #: epoch still equals ``retry_epoch``.
    retry_until: int = 0
    retry_epoch: int = -1
    #: Why the output is blocked (one of the ``_BLOCKED_*`` reasons).
    blocked_on: int = 0
    #: Local line of a blocked hit, re-touched on every skipped cycle.
    blocked_line: int = -1


class L2Slice(Component):
    """L2 cache slice + queue set for one memory partition."""

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
        cfg = config.l2
        n_sets = cfg.size_bytes // (config.line_bytes * cfg.assoc)
        self.tags = TagArray(f"{name}.tags", n_sets, cfg.assoc)
        self.mshr = MSHRTable(f"{name}.mshr", cfg.mshr_entries, cfg.mshr_max_merge)
        self.access_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.access_queue", cfg.access_queue_depth
        )
        self.miss_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.miss_queue", cfg.miss_queue_depth
        )
        self.response_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.response_queue", cfg.response_queue_depth
        )
        #: Occupancy aliases (containers mutated in place) for the
        #: per-cycle resource checks: a ``len()`` instead of an accessor.
        self._access_items = self.access_queue._items
        self._respq_items = self.response_queue._items
        self._mshr_entries = self.mshr._entries
        self.banks = [
            _Bank(
                pipe=DelayPipe(f"{name}.bank{i}", cfg.bank_latency),
                depth=cfg.bank_latency,
            )
            for i in range(cfg.banks)
        ]
        self._port_cycles = config.l2_port_cycles
        self._port_free_at = 0
        self._fast_mode = False
        #: Responses awaiting the data port (produced by fills).
        self._pending_responses: list[MemoryRequest] = []
        self._pending_cap = 4 * cfg.mshr_max_merge
        #: Set by the GPU wiring: the DRAM channel whose return queue we drain.
        self.dram = None
        # --- statistics ---
        self.store_hits: int = 0
        self.store_completions: int = 0
        self.writebacks: int = 0
        self.fills: int = 0
        self.port_busy_cycles: int = 0

    # ------------------------------------------------------------------
    # component protocol
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        # Fast path: nothing in flight anywhere in the slice.
        if self.next_wake(now) > now:
            return
        for bank in self.banks:
            bank.accepted_this_cycle = False
        self._process_fills(now)
        self._emit_pending_responses(now)
        self._step_bank_outputs(now)
        self._step_bank_inputs(now)

    def set_fast_mode(self, enabled: bool) -> None:
        super().set_fast_mode(enabled)
        self._fast_mode = enabled
        for bank in self.banks:
            bank.retry_until = 0

    def next_wake(self, now: int) -> int:
        if (
            self.access_queue._items
            or self._pending_responses
            or (self.dram is not None and self.dram.return_queue._items)
        ):
            return now
        # Quiet front end: the only time-dependent state is requests in
        # the bank pipelines (a held output register retries every cycle).
        wake = WAKE_NEVER
        for bank in self.banks:
            if bank.output is not None:
                return now
            fifo = bank.pipe._fifo
            if fifo and fifo[0][0] < wake:
                wake = fifo[0][0]
        return wake if wake > now else now

    # ------------------------------------------------------------------
    # fills from DRAM
    # ------------------------------------------------------------------
    def _process_fills(self, now: int) -> None:
        """Install at most one returning DRAM line per cycle."""
        if self.dram is None:
            return
        return_queue = self.dram.return_queue
        if not return_queue._items:
            return
        if len(self._pending_responses) >= self._pending_cap:
            return  # back-pressure towards DRAM
        response = return_queue.pop(now)
        line = response.line
        local = self._mapper.local_line(line)
        entry = self.mshr.release(line, now)
        self.tags.fill(local, now, dirty=entry.has_store)
        self.fills += 1
        response.timestamps["l2_fill"] = now
        for original in entry.requests:
            if original.kind is AccessKind.LOAD:
                original.is_response = True
                original.timestamps["l2_fill"] = now
                self._pending_responses.append(original)
            else:
                self.store_completions += 1
                original.retired = True  # store data merged into the line

    def _emit_pending_responses(self, now: int) -> None:
        """Push fill responses through the data port into the response queue."""
        while (
            self._pending_responses
            and now >= self._port_free_at
            and len(self._respq_items) < self.response_queue.capacity
        ):
            response = self._pending_responses.pop(0)
            response.timestamps["l2_out"] = now
            self.response_queue.push(response, now)
            self._port_free_at = now + self._port_cycles
            self.port_busy_cycles += self._port_cycles

    # ------------------------------------------------------------------
    # bank pipeline
    # ------------------------------------------------------------------
    def _slice_epoch(self) -> int:
        """Monotone count of events that can unblock a bank output.

        MSHR allocations, merges and releases (every tag reservation and
        fill comes with one) change hit/miss and the miss-path resources;
        miss-queue and response-queue pops free the slots a blocked
        output waits for.  Pushes only ever take slots away.
        """
        mshr = self.mshr
        return (
            mshr.allocations + mshr.merges + mshr.releases
            + self.miss_queue.pops + self.response_queue.pops
        )

    def _step_bank_outputs(self, now: int) -> None:
        fast = self._fast_mode
        for bank in self.banks:
            request = bank.output
            if request is None:
                fifo = bank.pipe._fifo
                if not fifo or fifo[0][0] > now:
                    continue
                request = bank.output = fifo.popleft()[1]
            elif now < bank.retry_until and bank.retry_epoch == self._slice_epoch():
                # Retry on change: nothing the blocked output waits on has
                # moved, so the retry would fail again.  Replay its
                # per-cycle side effects instead.
                bank.blocked_cycles += 1
                if bank.blocked_on == _BLOCKED_HIT:
                    self.tags.lookup(bank.blocked_line, now, count=False)
                elif bank.blocked_on == _BLOCKED_RESERVE:
                    self.tags.reservation_fails += 1
                continue
            blocked = self._resolve(request, now)
            if blocked is None:
                bank.output = None
                continue
            bank.blocked_cycles += 1
            if fast:
                bank.blocked_on = blocked
                bank.retry_epoch = self._slice_epoch()
                if blocked == _BLOCKED_HIT:
                    bank.blocked_line = self._mapper.local_line(request.line)
                    port_free_at = self._port_free_at
                    bank.retry_until = (
                        port_free_at if now < port_free_at else WAKE_NEVER)
                else:
                    bank.retry_until = WAKE_NEVER

    def _resolve(self, request: MemoryRequest, now: int) -> int | None:
        """Try to retire one bank output.

        Returns None once it retired, else why it is blocked (one of the
        ``_BLOCKED_*`` reasons); a blocked output retries next cycle.
        """
        local = self._mapper.local_line(request.line)
        hit = self.tags.lookup(local, now, count=False)
        if "l2_probed" not in request.timestamps:
            # Count the access outcome once, not once per blocked retry.
            request.timestamps["l2_probed"] = now
            if hit:
                self.tags.lookups.hit()
            else:
                self.tags.lookups.miss()
        if hit:
            if request.kind is AccessKind.STORE:
                self.tags.mark_dirty(local)
                self.store_hits += 1
                self.store_completions += 1
                request.timestamps["l2_hit"] = now
                request.retired = True  # write-through store ends at L2
                return None
            # Load hit: needs the data port and a response-queue slot.
            if (
                now < self._port_free_at
                or len(self._respq_items) >= self.response_queue.capacity
            ):
                return _BLOCKED_HIT
            request.is_response = True
            request.timestamps["l2_hit"] = now
            request.timestamps["l2_out"] = now
            self.response_queue.push(request, now)
            self._port_free_at = now + self._port_cycles
            self.port_busy_cycles += self._port_cycles
            return None
        # Miss path.
        probe = self.mshr.probe(request.line)
        if probe is MSHRProbe.MERGEABLE:
            self.mshr.merge(request, now)
            request.l2_miss = True
            request.timestamps["l2_miss"] = now
            return None
        if (
            probe is MSHRProbe.ENTRY_FULL
            or len(self._mshr_entries) >= self.mshr.capacity
        ):
            return _BLOCKED_MISS
        # Reserving may evict a dirty line needing a writeback slot, so
        # demand two free miss-queue slots before committing.
        if self.miss_queue.capacity - len(self.miss_queue._items) < 2:
            return _BLOCKED_MISS
        evicted = self.tags.reserve(local, now)
        if evicted is False:
            return _BLOCKED_RESERVE  # every way pending a fill
        self.mshr.allocate(request, now)
        request.l2_miss = True
        request.timestamps["l2_miss"] = now
        if evicted is not None and evicted.dirty:
            self._emit_writeback(evicted.line, request, now)
        self.miss_queue.push(request, now)
        return None

    def _emit_writeback(
        self, local_line: int, cause: MemoryRequest, now: int
    ) -> None:
        """Queue a writeback of an evicted dirty local line to DRAM."""
        global_line = (local_line << (self._mapper.n_partitions - 1).bit_length()) | self.partition_id
        writeback = MemoryRequest(
            rid=-cause.rid - 1,  # negative ids mark internally generated traffic
            kind=AccessKind.WRITEBACK,
            line=global_line,
            sm_id=-1,
            warp_id=-1,
            issued_at=now,
        )
        writeback.timestamps["l2_writeback"] = now
        self.writebacks += 1
        self.miss_queue.push(writeback, now)

    def _step_bank_inputs(self, now: int) -> None:
        accepted = 0
        items = self._access_items
        while accepted < len(self.banks) and items:
            bank = self.banks[self._mapper.l2_bank(items[0].line)]
            if bank.accepted_this_cycle or len(bank.pipe._fifo) >= bank.depth:
                break  # head-of-line blocking on a busy bank
            request = self.access_queue.pop(now)
            request.timestamps["l2_in"] = now
            bank.pipe.insert(request, now)
            bank.accepted_this_cycle = True
            accepted += 1

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return (
            self.access_queue.empty
            and self.miss_queue.empty
            and self.response_queue.empty
            and not self._pending_responses
            and len(self.mshr) == 0
            and all(b.output is None and b.pipe.empty for b in self.banks)
        )

    def finalize(self, now: int) -> None:
        self.access_queue.finalize(now)
        self.miss_queue.finalize(now)
        self.response_queue.finalize(now)
        self.mshr.finalize(now)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def queues(self):
        return (
            ("l2_accessq", self.access_queue),
            ("l2_missq", self.miss_queue),
            ("l2_respq", self.response_queue),
        )

    def mshrs(self):
        return (("l2_mshr", self.mshr),)

    def counters(self):
        return (
            ("l2_fills", self.fills),
            ("l2_writebacks", self.writebacks),
            ("l2_port_busy_cycles", self.port_busy_cycles),
        )

    def inflight(self):
        for bank in self.banks:
            yield from bank.pipe
            if bank.output is not None:
                yield bank.output
        yield from self._pending_responses
