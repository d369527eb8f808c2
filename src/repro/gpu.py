"""Top-level GPU model.

Assembles the full simulated machine from a :class:`GPUConfig` and a
:class:`KernelProgram`:

* ``n_sms`` SMs, each with a private L1D;
* a request crossbar (L1 miss queues -> L2 access queues) and a response
  crossbar (L2 response queues -> L1 fill ports), both flit-based;
* ``n_partitions`` memory partitions, each an L2 slice paired with a DRAM
  channel.

In *magic memory* mode (Figure 1) only the SMs are built: every L1 miss is
filled after exactly ``config.magic_latency`` cycles by the L1 itself.

Component step order is cores -> request crossbar -> L2 -> DRAM -> response
crossbar, giving a one-hop-per-cycle forward path and a clean backward path
for responses produced earlier in the same cycle.
"""

from __future__ import annotations

from repro.cores.sm import SM
from repro.dram.controller import DRAMChannel
from repro.cache.l2 import L2Slice
from repro.errors import ConfigError
from repro.icnt.crossbar import Crossbar, PacketSink
from repro.icnt.ring import RingNetwork
from repro.mem.address import AddressMapper
from repro.mem.request import RequestFactory
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES, Simulator
from repro.workloads.program import KernelProgram


class GPU:
    """A fully wired simulated GPU executing one kernel."""

    def __init__(
        self,
        config: GPUConfig,
        kernel: KernelProgram,
        seed: int = 1,
    ) -> None:
        self.config = config
        self.kernel = kernel
        self.seed = seed
        self.mapper = AddressMapper(config)
        self.factory = RequestFactory()
        self.sim = Simulator()

        if kernel.scheduler is not None and kernel.scheduler != config.core.scheduler:
            from dataclasses import replace

            config = replace(
                config, core=replace(config.core, scheduler=kernel.scheduler)
            )
            self.config = config

        warps_per_sm = kernel.warps_per_sm or config.core.warps_per_sm
        if warps_per_sm > 64:
            raise ConfigError("warps_per_sm above 64 breaks arena layout")

        self.sms: list[SM] = []
        for sm_id in range(config.core.n_sms):
            programs = [
                kernel.instantiate(sm_id, warp_id, seed)
                for warp_id in range(warps_per_sm)
            ]
            self.sms.append(
                SM(sm_id, config, programs, kernel.mlp_limit, self.factory)
            )

        self.l2_slices: list[L2Slice] = []
        self.dram_channels: list[DRAMChannel] = []
        self.request_xbar: Crossbar | None = None
        self.response_xbar: Crossbar | None = None

        for sm in self.sms:
            self.sim.add(sm)
        #: SMs not yet known to be done; see :meth:`done`.
        self._running = list(self.sms)

        if not config.magic_memory:
            self._build_memory_system(config)

    # ------------------------------------------------------------------
    def _build_memory_system(self, config: GPUConfig) -> None:
        for pid in range(config.n_partitions):
            l2 = L2Slice(f"l2_p{pid}", config, self.mapper, pid)
            dram = DRAMChannel(f"dram_p{pid}", config, self.mapper, pid)
            l2.dram = dram
            dram.l2 = l2
            self.l2_slices.append(l2)
            self.dram_channels.append(dram)

        mapper = self.mapper
        if config.icnt.topology == "ring":
            def make_network(name, sources, sinks, route, flit_count, hop):
                return RingNetwork(
                    name, config, sources=sources, sinks=sinks, route=route,
                    flit_count=flit_count, stamp_hop=hop,
                    hop_latency=config.icnt.ring_hop_latency)
        else:
            def make_network(name, sources, sinks, route, flit_count, hop):
                return Crossbar(
                    name, config, sources=sources, sinks=sinks, route=route,
                    flit_count=flit_count, stamp_hop=hop)

        self.request_xbar = req = make_network(
            "req_xbar",
            [sm.l1.miss_queue for sm in self.sms],
            [
                PacketSink(
                    can_accept=(lambda q: lambda _req: len(q._items) < q.capacity)(
                        l2.access_queue),
                    accept=(lambda l2: lambda req, now: l2.access_queue.push(req, now))(l2),
                )
                for l2 in self.l2_slices
            ],
            lambda req: mapper.partition(req.line),
            config.request_flits,
            "icnt_req",
        )
        self.response_xbar = resp = make_network(
            "resp_xbar",
            [l2.response_queue for l2 in self.l2_slices],
            [
                PacketSink(
                    can_accept=lambda _req: True,
                    accept=(lambda sm: lambda req, now: sm.l1.deliver_fill(req, now))(sm),
                )
                for sm in self.sms
            ],
            lambda req: req.sm_id,
            lambda _is_write: config.response_flits(True),
            "icnt_resp",
        )

        self.sim.add(req)
        for l2 in self.l2_slices:
            self.sim.add(l2)
        for dram in self.dram_channels:
            self.sim.add(dram)
        self.sim.add(resp)

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """All warps on all SMs retired.

        Polled every cycle: ``SM.done`` never reverts, so done SMs are
        dropped off the end of ``_running`` and each call usually checks
        a single SM.
        """
        running = self._running
        while running and running[-1].done:
            running.pop()
        return not running

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> int:
        """Run to completion; returns the cycle at which all warps retired."""
        return self.sim.run(self.done, max_cycles=max_cycles)

    # ------------------------------------------------------------------
    # aggregate statistics (detailed extraction in repro.core.metrics)
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.sim.cycle

    @property
    def instructions(self) -> int:
        return sum(sm.instructions for sm in self.sms)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0
