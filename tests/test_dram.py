"""DRAM channel tests: bank timing, FR-FCFS, bus serialization, queues."""

import dataclasses

import pytest

from repro.cache.l2 import L2Slice
from repro.dram.bankstate import BankFile, BankState
from repro.dram.controller import DRAMChannel
from repro.dram.scheduler import ACTIVATE, CAS, make_scheduler
from repro.errors import ConfigError
from repro.mem.address import AddressMapper
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.config import DRAMConfig, GPUConfig, tiny_gpu


def make_channel(**dram_kwargs):
    cfg = tiny_gpu()
    if dram_kwargs:
        cfg = dataclasses.replace(
            cfg, dram=dataclasses.replace(cfg.dram, **dram_kwargs)
        )
    mapper = AddressMapper(cfg)
    channel = DRAMChannel("d", cfg, mapper, partition_id=0)
    l2 = L2Slice("l2", cfg, mapper, partition_id=0)
    l2.dram = channel
    channel.l2 = l2
    return channel, l2, mapper, cfg


def read(rid, line):
    return MemoryRequest(rid=rid, kind=AccessKind.LOAD, line=line, sm_id=0, warp_id=0)


def writeback(rid, line):
    return MemoryRequest(
        rid=rid, kind=AccessKind.WRITEBACK, line=line, sm_id=-1, warp_id=-1
    )


def run_until_returns(channel, n, limit=5000):
    """Step the channel until n responses appear in the return queue."""
    for cycle in range(limit):
        channel.step(cycle)
        if len(channel.return_queue) >= n:
            return cycle
    raise AssertionError(f"only {len(channel.return_queue)} returns in {limit} cycles")  # noqa: REP003 - test-helper failure, not simulator code


class TestBankState:
    def test_access_latency_cases(self):
        timing = DRAMConfig()
        bank = BankState(0)
        assert bank.access_latency(5, timing) == timing.t_rcd + timing.t_cas
        bank.open_row = 5
        assert bank.access_latency(5, timing) == timing.t_cas
        assert (
            bank.access_latency(6, timing)
            == timing.t_rp + timing.t_rcd + timing.t_cas
        )

    def test_row_stats(self):
        bank = BankState(0)
        bank.record_access(1)
        bank.open_row = 1
        bank.record_access(1)
        bank.record_access(2)
        assert bank.row_closed == 1
        assert bank.row_hits == 1
        assert bank.row_conflicts == 1
        assert bank.row_hit_rate == pytest.approx(1 / 3)


class TestServiceFlow:
    def test_read_returns_after_activate_cas_transfer(self):
        channel, l2, mapper, cfg = make_channel()
        l2.miss_queue.push(read(0, 0), 0)
        done = run_until_returns(channel, 1)
        timing = cfg.dram
        minimum = timing.t_rcd + timing.t_cas + cfg.dram_transfer_cycles
        assert done >= minimum - 1
        assert channel.reads == 1

    def test_row_hits_counted_for_same_row_stream(self):
        channel, l2, mapper, cfg = make_channel()
        # Consecutive local lines in one partition share a row initially.
        for i in range(4):
            l2.miss_queue.push(read(i, i * cfg.n_partitions), 0)
        run_until_returns(channel, 4)
        hits = sum(b.row_hits for b in channel.banks)
        assert hits == 3  # first opens the row, rest hit

    def test_writeback_completes_without_return(self):
        channel, l2, mapper, cfg = make_channel()
        l2.miss_queue.push(writeback(0, 0), 0)
        for cycle in range(600):
            channel.step(cycle)
            if channel.writes:
                break
        assert channel.writes == 1
        assert channel.return_queue.empty

    def test_store_fetch_returns_like_read(self):
        """Write-allocate STORE fetches must come back (deadlock guard)."""
        channel, l2, mapper, cfg = make_channel()
        store = MemoryRequest(
            rid=0, kind=AccessKind.STORE, line=0, sm_id=0, warp_id=0
        )
        l2.miss_queue.push(store, 0)
        run_until_returns(channel, 1)
        assert channel.return_queue.peek().kind is AccessKind.STORE

    def test_bus_serializes_transfers(self):
        channel, l2, mapper, cfg = make_channel()
        n = 6
        # Same row -> row hits -> bus-limited spacing.  Feed respecting the
        # miss queue's capacity.
        pending = [read(i, i * cfg.n_partitions) for i in range(n)]
        done = None
        for cycle in range(5000):
            while pending and l2.miss_queue.can_push():
                l2.miss_queue.push(pending.pop(0), cycle)
            channel.step(cycle)
            if len(channel.return_queue) >= n:
                done = cycle
                break
        assert done is not None
        # n transfers cannot finish faster than n * transfer_cycles.
        assert done >= n * cfg.dram_transfer_cycles

    def test_sched_queue_admits_one_per_cycle(self):
        channel, l2, mapper, cfg = make_channel()
        for i in range(4):
            l2.miss_queue.push(read(i, i), 0)
        channel.step(0)
        assert len(channel.sched_queue) == 1
        channel.step(1)
        assert len(channel.sched_queue) + channel.reads >= 2


class TestSchedulers:
    def _queue_with(self, mapper, reqs):
        """Build a scheduler queue with the coordinates the controller
        caches on each request at admission."""
        from repro.mem.queue import StatQueue

        q = StatQueue("q", 32)
        for r in reqs:
            r.dram_bank = mapper.dram_bank(r.line)
            r.dram_row = mapper.dram_row(r.line)
            q.push(r, 0)
        return q

    def test_frfcfs_prefers_row_hit_over_older_conflict(self):
        cfg = tiny_gpu()
        mapper = AddressMapper(cfg)
        sched = make_scheduler("frfcfs")
        banks = BankFile(cfg.dram.banks)
        old = read(0, 0)
        young = read(1, 0 + cfg.n_partitions)  # same bank/row region
        row = mapper.dram_row(young.line)
        banks.open_row[mapper.dram_bank(young.line)] = row
        queue = self._queue_with(mapper, [old, young])
        # "old" also maps to the same row here, so pick oldest hit = old.
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, True, True
        )
        assert choice == (CAS, old)

    def test_frfcfs_activates_for_oldest_when_no_hits(self):
        cfg = tiny_gpu()
        mapper = AddressMapper(cfg)
        sched = make_scheduler("frfcfs")
        banks = BankFile(cfg.dram.banks)
        a = read(0, 0)
        queue = self._queue_with(mapper, [a])
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, True, True
        )
        assert choice == (ACTIVATE, a)

    def test_frfcfs_does_not_close_row_with_pending_hits(self):
        cfg = tiny_gpu()
        mapper = AddressMapper(cfg)
        sched = make_scheduler("frfcfs")
        banks = BankFile(cfg.dram.banks)
        hit = read(0, 0)
        bank_idx = mapper.dram_bank(hit.line)
        banks.open_row[bank_idx] = mapper.dram_row(hit.line)
        row_lines = cfg.dram.row_bytes // cfg.line_bytes
        # Request to a different row of the SAME bank.
        conflict_local = mapper.local_line(hit.line) + row_lines * cfg.dram.banks
        conflict = read(1, conflict_local * cfg.n_partitions)
        assert mapper.dram_bank(conflict.line) == bank_idx
        queue = self._queue_with(mapper, [conflict, hit])
        # The hit is bus-gated (bus_ok False); activate must NOT fire on its bank.
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, False, True
        )
        assert choice is None

    def test_fcfs_serves_strictly_in_order(self):
        cfg = tiny_gpu()
        mapper = AddressMapper(cfg)
        sched = make_scheduler("fcfs")
        banks = BankFile(cfg.dram.banks)
        a, b = read(0, 0), read(1, cfg.n_partitions)
        banks.open_row[mapper.dram_bank(b.line)] = mapper.dram_row(b.line)
        queue = self._queue_with(mapper, [a, b])
        # b is a ready row hit but FCFS must handle a first (activate).
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, True, True
        )
        # a and b share the open row in this mapping? ensure decision is for a.
        assert choice[1] is a

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigError):
            make_scheduler("mystery")


class TestReturnPathGuard:
    def test_reads_gated_by_return_queue_headroom(self):
        channel, l2, mapper, cfg = make_channel(return_queue_depth=2)
        pending = [read(i, i * cfg.n_partitions) for i in range(8)]
        for cycle in range(2000):
            while pending and l2.miss_queue.can_push():
                l2.miss_queue.push(pending.pop(0), cycle)
            channel.step(cycle)
        # Never more returns than capacity, and no stuck completions.
        assert len(channel.return_queue) <= 2
        # Drain and confirm the rest flow.
        drained = len(channel.return_queue)
        for cycle in range(2000, 6000):
            if not channel.return_queue.empty:
                channel.return_queue.pop(cycle)
                drained += 1
            channel.step(cycle)
            if drained == 8:
                break
        assert drained == 8
