"""Event-horizon fast-forward determinism suite.

The optimisation contract is *byte identity*: a run with fast-forward
enabled must produce exactly the same :class:`RunMetrics` — cycles,
instructions, IPC, every per-queue ``full_fraction`` — as the naive
per-cycle loop, on every benchmark, under magic memory, for any seed,
for both warp schedulers and across the Table I scaled and ablation
configs.  These tests are the lock on that contract.

Engine-level semantics (wake hints, tick replay, observer gating) are
covered on hand-built components below the workload sweep.
"""

from dataclasses import replace

import pytest

from repro.analysis import Sanitizer
from repro.cache.l2 import L2Slice
from repro.core.design_space import scale_level, scale_levels
from repro.core.metrics import run_kernel
from repro.cores.sm import SM
from repro.dram.controller import DRAMChannel
from repro.gpu import GPU
from repro.mem.address import AddressMapper
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.clock import ClockDomain
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.engine import Simulator
from repro.sim.config import tiny_gpu
from repro.workloads.suite import BENCHMARKS, get_benchmark

SCALE = 0.2


def _with(config, section, **fields):
    return replace(config, **{section: replace(getattr(config, section), **fields)})


#: Configurations that reach the retry-on-change paths in other shapes
#: than the baseline: deeper queues and more banks (Table I scaling),
#: in-order DRAM scheduling, refresh lockouts and write-back L1 traffic.
CONFIG_VARIANTS = {
    "l2_scaled": lambda: scale_level(tiny_gpu(), "l2"),
    "dram_scaled": lambda: scale_level(tiny_gpu(), "dram"),
    "l2_dram_scaled": lambda: scale_levels(tiny_gpu(), ("l2", "dram")),
    "fcfs": lambda: _with(tiny_gpu(), "dram", scheduler="fcfs"),
    "refresh": lambda: _with(
        tiny_gpu(), "dram", refresh_interval=300, refresh_cycles=30),
    "write_back_l1": lambda: _with(tiny_gpu(), "l1", write_policy="write_back"),
}


def _pair(config, name, seed=1, **kwargs):
    fast = run_kernel(
        config, get_benchmark(name, SCALE), seed=seed, **kwargs)
    naive = run_kernel(
        config, get_benchmark(name, SCALE), seed=seed,
        fast_forward=False, **kwargs)
    return fast, naive


class TestSuiteDeterminism:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("seed", (1, 2))
    def test_identical_metrics(self, name, seed):
        fast, naive = _pair(tiny_gpu(), name, seed=seed)
        assert fast == naive

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_identical_metrics_magic_memory(self, name):
        fast, naive = _pair(tiny_gpu().with_magic_memory(200), name)
        assert fast == naive

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_identical_metrics_gto_scheduler(self, name):
        """GTO bypasses the LRR burst fast paths; identity must still hold."""
        fast, naive = _pair(_with(tiny_gpu(), "core", scheduler="gto"), name)
        assert fast == naive

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
    def test_identical_metrics_config_variants(self, variant, name):
        fast, naive = _pair(CONFIG_VARIANTS[variant](), name)
        assert fast == naive

    def test_fast_forward_actually_engages(self):
        """The compute-bound benchmark must see real jumps, not a no-op."""
        gpu = GPU(tiny_gpu(), get_benchmark("leukocyte", SCALE))
        gpu.run(max_cycles=500_000)
        assert gpu.sim.cycles_fast_forwarded > 0


class TestObserverGating:
    def test_observer_suspends_fast_forward(self):
        """Observers assume on_cycle fires every cycle: attaching one must
        force the naive loop (no jumps), while leaving results identical."""
        plain = GPU(tiny_gpu(), get_benchmark("sc", SCALE))
        plain.run(max_cycles=500_000)
        observed = GPU(tiny_gpu(), get_benchmark("sc", SCALE))
        Sanitizer.attach(observed, interval=1)
        observed.run(max_cycles=500_000)
        assert observed.sim.cycles_fast_forwarded == 0
        assert observed.cycles == plain.cycles
        assert observed.instructions == plain.instructions

    def test_disabled_flag_forces_naive_loop(self):
        gpu = GPU(tiny_gpu(), get_benchmark("leukocyte", SCALE))
        gpu.sim.fast_forward_enabled = False
        gpu.run(max_cycles=500_000)
        assert gpu.sim.cycles_fast_forwarded == 0


class _Sleeper(Component):
    """Wakes at fixed cycles; counts real steps and replayed ticks."""

    def __init__(self, wakes):
        self.wakes = sorted(wakes)
        self.stepped = []
        self.replayed = 0

    def step(self, now):
        self.stepped.append(now)

    def next_wake(self, now):
        for wake in self.wakes:
            if wake >= now:
                return wake
        return WAKE_NEVER

    def fast_forward(self, cycles):
        self.replayed += cycles


class TestEngineSemantics:
    def test_jump_lands_on_joint_horizon(self):
        sim = Simulator()
        a = sim.add(_Sleeper([0, 10]))
        b = sim.add(_Sleeper([0, 7]))
        sim.run(lambda: sim.cycle >= 7, drain=False)
        # Cycle 0 steps naively (both wake there); after the retry
        # cooldown the engine jumps straight to 7 — the earlier of the two
        # horizons — never to a's later wake at 10.
        assert sim.cycle == 7
        assert sim.cycles_fast_forwarded > 0
        assert a.stepped == b.stepped  # lockstep: same naive cycles
        assert a.replayed == b.replayed == 7 - len(a.stepped)

    def test_replay_plus_steps_cover_every_cycle(self):
        sim = Simulator()
        s = sim.add(_Sleeper([0, 5, 11]))
        sim.run(lambda: sim.cycle >= 11, drain=False)
        assert len(s.stepped) + s.replayed == 11

    def test_none_hint_disables_fast_forward_for_good(self):
        sim = Simulator()
        hinted = sim.add(_Sleeper([0, 50]))
        unhinted = sim.add(_Sleeper([0, 50]))
        unhinted.next_wake = lambda now: None
        sim.run(lambda: sim.cycle >= 50, drain=False)
        assert sim.fast_forward_enabled is False
        assert hinted.replayed == 0  # every cycle stepped naively
        assert len(hinted.stepped) == 50

    def test_slow_clock_replay_counts_domain_ticks(self):
        """A period-2 component's fast_forward gets its own tick count."""
        sim = Simulator()
        fast = sim.add(_Sleeper([0, 20]))
        slow = sim.add(_Sleeper([0, 20]), ClockDomain("half", period=2))
        sim.run(lambda: sim.cycle >= 20, drain=False)
        assert fast.replayed + len(fast.stepped) == 20
        # The half-rate domain ticks on even cycles only: 10 edges in
        # [0, 20), replayed or stepped.
        assert slow.replayed + len(slow.stepped) == 10

    def test_budget_overrun_fires_at_naive_cycle(self):
        from repro.errors import CycleLimitExceeded

        sim = Simulator()
        sim.add(_Sleeper([0, 10_000]))
        with pytest.raises(CycleLimitExceeded):
            sim.run(lambda: False, max_cycles=100)
        assert sim.cycle == 100  # horizon clamped to the budget

    def test_component_added_mid_run_gets_fast_mode(self):
        """add() after run() started must propagate the active fast flag
        (components cache burst state keyed on it), and the rebuilt
        dispatch must step the newcomer from the next cycle on."""
        sim = Simulator()
        seen = []

        class _Recorder(_Sleeper):
            def set_fast_mode(self, enabled):
                seen.append(enabled)

        recorder = _Recorder([4])
        trigger = sim.add(_Sleeper([0, 3]))
        original = trigger.step

        def add_late(now):
            original(now)
            if now == 3:
                sim.add(recorder)

        trigger.step = add_late
        sim.run(lambda: sim.cycle >= 6, drain=False)
        assert seen == [True]
        assert recorder.stepped[0] == 4


class _CallCounter:
    """Counts calls of one method on every instance of a class."""

    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        real = getattr(cls, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def _partition(**l2_fields):
    config = _with(tiny_gpu(), "l2", **l2_fields)
    mapper = AddressMapper(config)
    l2 = L2Slice("l2", config, mapper, partition_id=0)
    dram = DRAMChannel("dram", config, mapper, partition_id=0)
    l2.dram = dram
    dram.l2 = l2
    return l2, dram, mapper


def _load(rid, line):
    return MemoryRequest(
        rid=rid, kind=AccessKind.LOAD, line=line, sm_id=0, warp_id=0)


class TestRetryOnChange:
    """Blocked units skip futile retries in fast mode, and a skipped
    cycle replays every side effect of the retry it replaces."""

    def test_retries_engage_and_stay_identical(self, monkeypatch):
        """The naive loop retries every blocked cycle; fast mode must
        retry strictly less while producing the same metrics."""
        counters = [
            _CallCounter(monkeypatch, SM, "_issue"),
            _CallCounter(monkeypatch, L2Slice, "_resolve"),
            _CallCounter(monkeypatch, DRAMChannel, "_select_horizon"),
        ]
        fast = run_kernel(tiny_gpu(), get_benchmark("lbm", SCALE), seed=1)
        fast_calls = [c.calls for c in counters]
        for counter in counters:
            counter.calls = 0
        naive = run_kernel(
            tiny_gpu(), get_benchmark("lbm", SCALE), seed=1, fast_forward=False)
        naive_calls = [c.calls for c in counters]
        assert fast == naive
        assert fast_calls[0] < naive_calls[0]  # SM steps skipped
        assert fast_calls[1] < naive_calls[1]  # L2 outputs not re-resolved
        assert fast_calls[2] > 0 and naive_calls[2] == 0  # DRAM memo armed

    @staticmethod
    def _blocked_hit(fast):
        """An L2 load hit held at the bank output by a booked data port."""
        l2, dram, mapper = _partition()
        l2.set_fast_mode(fast)
        dram.set_fast_mode(fast)
        l2.access_queue.push(_load(0, 0), 0)
        for cycle in range(400):
            l2.step(cycle)
            dram.step(cycle)
        l2.response_queue.pop(400)
        l2._port_free_at = 430
        hit = _load(1, 0)
        l2.access_queue.push(hit, 401)
        touches = []
        local = mapper.local_line(0)
        set_idx, way = l2.tags.set_index(local), l2.tags._way_of[local]
        for cycle in range(401, 440):
            l2.step(cycle)
            touches.append(l2.tags._policy._last_use[set_idx][way])
        return l2, hit, touches

    def test_port_blocked_hit_keeps_lru_recency(self, monkeypatch):
        naive_l2, naive_hit, naive_touches = self._blocked_hit(False)
        resolves = _CallCounter(monkeypatch, L2Slice, "_resolve")
        l2, hit, touches = self._blocked_hit(True)
        assert touches == naive_touches
        assert hit.timestamps["l2_out"] == naive_hit.timestamps["l2_out"] == 430
        blocked = l2.banks[0].blocked_cycles
        assert blocked == naive_l2.banks[0].blocked_cycles > 10
        # While held, every cycle re-touched the line: recency == now.
        held = range(430 - blocked, 430)
        assert [touches[c - 401] for c in held] == list(held)
        # The cold miss, the first failed hit, the retry at the port-free
        # cycle; no resolve in between.
        assert resolves.calls == 3

    @staticmethod
    def _reservation_blocked(fast):
        """A miss whose set has every way reserved for pending fills."""
        l2, dram, mapper = _partition(miss_queue_depth=16, mshr_entries=16)
        l2.set_fast_mode(fast)
        request = _load(0, 0)
        local = mapper.local_line(request.line)
        for k in range(1, l2.tags.assoc + 1):
            assert l2.tags.reserve(local + k * l2.tags.n_sets, 0) is None
        l2.access_queue.push(request, 0)
        for cycle in range(60):
            l2.step(cycle)  # DRAM never steps: the reservations never fill
        bank = next(b for b in l2.banks if b.output is request)
        return l2, bank

    def test_reservation_failure_counted_every_blocked_cycle(self, monkeypatch):
        naive_l2, naive_bank = self._reservation_blocked(False)
        resolves = _CallCounter(monkeypatch, L2Slice, "_resolve")
        l2, bank = self._reservation_blocked(True)
        assert bank.blocked_cycles > 40
        assert l2.tags.reservation_fails == bank.blocked_cycles
        assert l2.tags.reservation_fails == naive_l2.tags.reservation_fails
        assert bank.blocked_cycles == naive_bank.blocked_cycles
        assert resolves.calls == 1

    @staticmethod
    def _channel():
        config = tiny_gpu()
        mapper = AddressMapper(config)
        channel = DRAMChannel("dram", config, mapper, partition_id=0)
        channel.set_fast_mode(True)
        selects = []
        real = channel._scheduler.select

        def select(queue, busy_until, open_row, now, bus_ok, reads_ok):
            selects.append(now)
            return real(queue, busy_until, open_row, now, bus_ok, reads_ok)

        channel._scheduler.select = select
        return channel, selects

    @staticmethod
    def _enqueue(channel, rid, bank, row):
        request = _load(rid, rid)
        request.dram_bank = bank
        request.dram_row = row
        channel.sched_queue.push(request, 0)
        return request

    def test_dram_reselects_on_bank_ready_cycle(self):
        channel, selects = self._channel()
        channel.bank_file.busy_until[0] = 20  # bank 1 stays ready
        self._enqueue(channel, 0, bank=0, row=3)
        for cycle in range(21):
            channel.step(cycle)
        assert selects == [0, 20]
        assert channel.bank_file.open_row[0] == 3  # activated at 20

    def test_dram_reselects_on_bus_gate_cycle(self):
        channel, selects = self._channel()
        timing = channel._config.dram
        window = timing.bus_window_transfers * channel._transfer_cycles
        channel._bus_free_at = 15 + timing.t_cas + window  # gate opens at 15
        channel.bank_file.open_row[0] = 3
        request = self._enqueue(channel, 0, bank=0, row=3)
        for cycle in range(30):
            channel.step(cycle)
            if request not in channel.sched_queue:
                break
        assert selects == [0, 15]
        assert channel.reads == 1  # the CAS issued once the gate opened

    def test_dram_reselects_after_queue_change(self):
        channel, selects = self._channel()
        channel.bank_file.busy_until[0] = 1000
        self._enqueue(channel, 0, bank=0, row=3)
        for cycle in range(10):
            channel.step(cycle)
        self._enqueue(channel, 1, bank=1, row=5)
        channel.step(10)
        assert selects == [0, 10]
        assert channel.bank_file.open_row[1] == 5  # activated at 10
