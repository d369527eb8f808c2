"""Architectural configuration.

Every design parameter from Table I of the paper appears here under the same
name, grouped into the same three levels — (a) DRAM, (b) L2 cache, (c) L1
cache — plus the structural parameters (cache geometry, timing) that the
paper inherits from its GTX480 GPGPU-Sim baseline.

Baseline values match Table I exactly:

===============================  =========  ===========
parameter                        baseline   scaled ~4x
===============================  =========  ===========
DRAM scheduler queue             16         64
DRAM banks (per chip/channel)    16         64
DRAM bus width                   32 bit     64 bit
L2 miss queue                    8          32
L2 response queue                8          32
L2 MSHR                          32         128
L2 access queue                  8          32
L2 data port                     32 B       128 B
Flit size (crossbar)             4 B        16 B
L2 banks per partition           2          8
L1 miss queue                    8          32
L1 MSHR                          32         128
Memory pipeline width            10         40
===============================  =========  ===========

Timing parameters are chosen so the *unloaded* round-trip latencies match
the paper's stated ideal access latencies: ~120 core cycles to L2 and ~100
additional cycles to DRAM (Section II).

All config dataclasses are frozen; derive variants with
:func:`dataclasses.replace` or the helpers in
:mod:`repro.core.design_space`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CoreConfig:
    """Streaming-multiprocessor (SM) front-end parameters."""

    n_sms: int = 8
    #: Maximum resident warps per SM (GTX480: 48).
    warps_per_sm: int = 16
    #: Instructions issued per SM per cycle across ready warps.
    issue_width: int = 2
    #: Table I "Memory pipeline width": memory transactions the LD/ST unit
    #: can present to the L1 per core cycle.
    mem_pipeline_width: int = 10
    #: Capacity of the LD/ST unit's pending-transaction queue.
    ldst_queue_depth: int = 64
    #: Default per-warp limit on outstanding load instructions before the
    #: warp blocks (workloads may override per kernel).
    default_mlp_limit: int = 4
    #: Warp scheduler policy: "lrr" (loose round robin) or "gto"
    #: (greedy-then-oldest).
    scheduler: str = "lrr"
    #: TLP throttle: at most this many warps concurrently active per SM
    #: (None = all resident warps).  Retiring warps activate waiting ones.
    #: Models concurrency-throttling congestion mitigations (cf. the
    #: paper's reference to MASCAR-style schemes).
    active_warp_limit: int | None = None

    def __post_init__(self) -> None:
        _require(self.n_sms >= 1, "n_sms must be >= 1")
        _require(
            self.active_warp_limit is None or self.active_warp_limit >= 1,
            "active_warp_limit must be >= 1 or None")
        _require(self.warps_per_sm >= 1, "warps_per_sm must be >= 1")
        _require(self.issue_width >= 1, "issue_width must be >= 1")
        _require(self.mem_pipeline_width >= 1, "mem_pipeline_width must be >= 1")
        _require(self.ldst_queue_depth >= 1, "ldst_queue_depth must be >= 1")
        _require(self.default_mlp_limit >= 1, "default_mlp_limit must be >= 1")
        _require(self.scheduler in ("lrr", "gto"),
                 f"unknown scheduler {self.scheduler!r}")


@dataclass(frozen=True)
class L1Config:
    """Per-SM L1 data cache (write-through, no write-allocate)."""

    size_bytes: int = 16 * 1024
    assoc: int = 4
    #: Table I "MSHR (L1D)".
    mshr_entries: int = 32
    #: Maximum requests merged into one outstanding MSHR entry.
    mshr_max_merge: int = 8
    #: Table I "L1 miss queue".
    miss_queue_depth: int = 8
    #: Cycles from tag hit to data return.
    hit_latency: int = 4
    #: Cycles from fill arrival to line readable / dependents woken.
    fill_latency: int = 1
    #: Store handling: "write_through" (Fermi-style write-through with
    #: write-evict, the paper's baseline) or "write_back" (write-allocate
    #: with dirty eviction writebacks to L2).
    write_policy: str = "write_through"

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "L1 size must be positive")
        _require(self.write_policy in ("write_through", "write_back"),
                 f"unknown L1 write policy {self.write_policy!r}")
        _require(self.assoc >= 1, "L1 assoc must be >= 1")
        _require(self.mshr_entries >= 1, "L1 MSHR entries must be >= 1")
        _require(self.mshr_max_merge >= 1, "L1 MSHR merge depth must be >= 1")
        _require(self.miss_queue_depth >= 1, "L1 miss queue must be >= 1")
        _require(self.hit_latency >= 1, "L1 hit latency must be >= 1")
        _require(self.fill_latency >= 1, "L1 fill latency must be >= 1")


@dataclass(frozen=True)
class ICNTConfig:
    """Crossbar interconnect between SMs and memory partitions."""

    #: Table I "Flit size (crossbar)" in bytes.
    flit_bytes: int = 4
    #: Parallel links per port; each moves one flit per cycle, so port
    #: bandwidth is ``flit_bytes * channel_lanes`` bytes/cycle.  Fixed at 8
    #: (matching GPGPU-Sim's GTX480 32-byte channel with the paper's 4-byte
    #: flit); the Table I knob is the flit size.
    channel_lanes: int = 8
    #: Control-header bytes carried by every packet.
    header_bytes: int = 8
    #: Packets buffered at each input port awaiting arbitration.
    input_queue_pkts: int = 4
    #: Fixed network traversal latency (cycles) added to each response
    #: delivery, modelling router/channel pipeline depth; together with the
    #: L2 bank latency it sets the unloaded ~120-cycle L2 round trip.
    network_latency: int = 100
    #: Topology: "crossbar" (baseline, as GPGPU-Sim's GTX480) or "ring"
    #: (ablation alternative with shared-link bandwidth).
    topology: str = "crossbar"
    #: Per-hop pipeline latency of the ring topology.
    ring_hop_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.flit_bytes >= 1, "flit size must be >= 1 byte")
        _require(self.network_latency >= 0, "network latency must be >= 0")
        _require(self.topology in ("crossbar", "ring"),
                 f"unknown interconnect topology {self.topology!r}")
        _require(self.ring_hop_latency >= 0, "ring hop latency must be >= 0")
        _require(self.channel_lanes >= 1, "channel lanes must be >= 1")
        _require(self.header_bytes >= 1, "header size must be >= 1 byte")
        _require(self.input_queue_pkts >= 1, "input queue must be >= 1 packet")


@dataclass(frozen=True)
class L2Config:
    """Per-partition slice of the shared L2 (write-back, write-allocate)."""

    #: Capacity per partition (GTX480: 768 KiB over 6 partitions).
    size_bytes: int = 128 * 1024
    assoc: int = 8
    #: Table I "L2 banks" per partition.
    banks: int = 2
    #: Pipelined bank access latency in core cycles; with the network
    #: latency this sets the unloaded L1-miss-to-L2-hit round trip at ~120
    #: cycles (Section II).  The pipeline depth also bounds per-bank
    #: buffering, so most of the round trip is carried by the (bufferless)
    #: response network instead — back-pressure then reaches the Table I
    #: access queue instead of pooling invisibly in deep bank pipes.
    bank_latency: int = 15
    #: Table I "L2 access queue".
    access_queue_depth: int = 8
    #: Table I "L2 miss queue".
    miss_queue_depth: int = 8
    #: Table I "L2 response queue".
    response_queue_depth: int = 8
    #: Table I "MSHR" (L2).
    mshr_entries: int = 32
    mshr_max_merge: int = 8
    #: Table I "L2 data port" in bytes per cycle: a response of one cache
    #: line occupies the partition's return port for
    #: ``ceil(line_size / data_port_bytes)`` cycles.
    data_port_bytes: int = 32

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "L2 size must be positive")
        _require(self.assoc >= 1, "L2 assoc must be >= 1")
        _require(_is_pow2(self.banks), "L2 banks must be a power of two")
        _require(self.bank_latency >= 1, "L2 bank latency must be >= 1")
        _require(self.access_queue_depth >= 1, "L2 access queue must be >= 1")
        _require(self.miss_queue_depth >= 1, "L2 miss queue must be >= 1")
        _require(self.response_queue_depth >= 1,
                 "L2 response queue must be >= 1")
        _require(self.mshr_entries >= 1, "L2 MSHR entries must be >= 1")
        _require(self.mshr_max_merge >= 1, "L2 MSHR merge depth must be >= 1")
        _require(self.data_port_bytes >= 1, "L2 data port must be >= 1 byte")


@dataclass(frozen=True)
class DRAMConfig:
    """Per-partition GDDR channel and controller."""

    #: Table I "Scheduler queue".
    sched_queue_depth: int = 16
    #: Table I "DRAM Banks" (per chip; one chip per channel modelled).
    banks: int = 16
    #: Table I "Bus width" in bytes per channel (32 bit = 4 B).
    bus_bytes: int = 4
    #: Transfers per core cycle on the data bus (DDR signalling relative to
    #: the core clock); one line occupies the bus for
    #: ``line_size / (bus_bytes * data_rate)`` cycles.
    data_rate: int = 4
    #: Row-buffer size per bank.
    row_bytes: int = 2048
    #: Activate-to-column (RAS-to-CAS) delay, core cycles.
    t_rcd: int = 40
    #: Precharge latency, core cycles.
    t_rp: int = 40
    #: Column access (CAS) latency, core cycles.
    t_cas: int = 40
    #: Scheduling policy: "frfcfs" (first-ready FCFS) or "fcfs".
    scheduler: str = "frfcfs"
    #: Data-bus booking window, in transfers: the controller stops issuing
    #: once the bus is reserved more than this many line transfers into the
    #: future.  Deep enough to keep the bus saturated and banks parallel,
    #: shallow enough that sustained overload backs up into the scheduler
    #: queue (where Section III measures it) instead of an invisible bus
    #: backlog.
    bus_window_transfers: int = 8
    #: Depth of the DRAM->L2 return queue (not a Table I knob; sized to stay
    #: out of the way so back-pressure localizes in the Table I queues).
    return_queue_depth: int = 32
    #: Refresh interval in core cycles (0 = refresh not modelled, the
    #: baseline).  Every interval all banks are locked out for
    #: ``refresh_cycles`` and their rows close.
    refresh_interval: int = 0
    refresh_cycles: int = 0

    def __post_init__(self) -> None:
        _require(self.sched_queue_depth >= 1, "DRAM scheduler queue must be >= 1")
        _require(_is_pow2(self.banks), "DRAM banks must be a power of two")
        _require(self.bus_bytes >= 1, "DRAM bus width must be >= 1 byte")
        _require(self.data_rate >= 1, "DRAM data rate must be >= 1")
        _require(_is_pow2(self.row_bytes), "DRAM row size must be a power of two")
        _require(self.t_rcd >= 1 and self.t_rp >= 1 and self.t_cas >= 1,
                 "DRAM timing parameters must be >= 1")
        _require(self.scheduler in ("frfcfs", "fcfs"),
                 f"unknown DRAM scheduler {self.scheduler!r}")
        _require(self.bus_window_transfers >= 1,
                 "DRAM bus window must be >= 1 transfer")
        _require(self.return_queue_depth >= 1, "DRAM return queue must be >= 1")
        _require(self.refresh_interval >= 0, "refresh interval must be >= 0")
        _require(self.refresh_cycles >= 0, "refresh cycles must be >= 0")
        if self.refresh_interval:
            _require(self.refresh_cycles < self.refresh_interval,
                     "refresh must be shorter than its interval")


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU configuration aggregating all subsystems."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1: L1Config = field(default_factory=L1Config)
    icnt: ICNTConfig = field(default_factory=ICNTConfig)
    l2: L2Config = field(default_factory=L2Config)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    #: Number of memory partitions; each pairs one L2 slice with one DRAM
    #: channel (GTX480: 6).
    n_partitions: int = 4
    #: Cache-line / memory-transaction size in bytes.
    line_bytes: int = 128
    #: Figure 1 mode: when true, every L1 miss is serviced by a perfect
    #: responder after exactly ``magic_latency`` cycles; the interconnect,
    #: L2 and DRAM are not simulated.
    magic_memory: bool = False
    magic_latency: int = 0

    def __post_init__(self) -> None:
        _require(_is_pow2(self.n_partitions), "n_partitions must be a power of two")
        _require(_is_pow2(self.line_bytes), "line size must be a power of two")
        _require(self.magic_latency >= 0, "magic latency must be >= 0")
        _require(self.l1.size_bytes % (self.line_bytes * self.l1.assoc) == 0,
                 "L1 size must be divisible by line_bytes * assoc")
        _require(self.l2.size_bytes % (self.line_bytes * self.l2.assoc) == 0,
                 "L2 size must be divisible by line_bytes * assoc")
        _require(self.dram.row_bytes % self.line_bytes == 0,
                 "DRAM row must hold a whole number of lines")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def dram_transfer_cycles(self) -> int:
        """Core cycles one line occupies a DRAM channel's data bus."""
        per_cycle = self.dram.bus_bytes * self.dram.data_rate
        return max(1, -(-self.line_bytes // per_cycle))

    @property
    def l2_port_cycles(self) -> int:
        """Core cycles one line-sized response occupies the L2 data port."""
        return max(1, -(-self.line_bytes // self.l2.data_port_bytes))

    def request_flits(self, is_write: bool) -> int:
        """Crossbar flits for a request packet (writes carry line data)."""
        payload = self.line_bytes if is_write else 0
        return max(1, -(-(self.icnt.header_bytes + payload) // self.icnt.flit_bytes))

    def response_flits(self, carries_data: bool = True) -> int:
        """Crossbar flits for a response packet."""
        payload = self.line_bytes if carries_data else 0
        return max(1, -(-(self.icnt.header_bytes + payload) // self.icnt.flit_bytes))

    def request_transfer_cycles(self, is_write: bool) -> int:
        """Port cycles a request packet occupies a crossbar port."""
        lanes = self.icnt.channel_lanes
        return max(1, -(-self.request_flits(is_write) // lanes))

    def response_transfer_cycles(self, carries_data: bool = True) -> int:
        """Port cycles a response packet occupies a crossbar port."""
        lanes = self.icnt.channel_lanes
        return max(1, -(-self.response_flits(carries_data) // lanes))

    def with_magic_memory(self, latency: int) -> "GPUConfig":
        """Return a copy configured for Figure 1's fixed-latency mode."""
        return replace(self, magic_memory=True, magic_latency=latency)


#: Sub-config class per nested GPUConfig field (for deserialization).
_SUBCONFIG_TYPES: dict[str, type] = {
    "core": CoreConfig,
    "l1": L1Config,
    "icnt": ICNTConfig,
    "l2": L2Config,
    "dram": DRAMConfig,
}


def config_from_dict(payload: Mapping[str, Any]) -> GPUConfig:
    """Rebuild a :class:`GPUConfig` from ``dataclasses.asdict`` output.

    The inverse of ``dataclasses.asdict(config)`` — campaign manifests
    persist configs as plain JSON and rebuild them here.  Unknown or
    missing fields raise :class:`~repro.errors.ConfigError` (a manifest
    written by different code must fail loudly, not half-apply);
    ``__post_init__`` validation then runs as usual.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(
            f"config payload must be a mapping, got {type(payload).__name__}"
        )
    known = {f.name for f in dataclasses.fields(GPUConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown GPUConfig field(s): {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in payload.items():
        sub_type = _SUBCONFIG_TYPES.get(name)
        if sub_type is None:
            kwargs[name] = value
            continue
        if not isinstance(value, Mapping):
            raise ConfigError(
                f"GPUConfig.{name} must be a mapping, "
                f"got {type(value).__name__}"
            )
        sub_known = {f.name for f in dataclasses.fields(sub_type)}
        sub_unknown = sorted(set(value) - sub_known)
        if sub_unknown:
            raise ConfigError(
                f"unknown {sub_type.__name__} field(s): "
                + ", ".join(sub_unknown)
            )
        kwargs[name] = sub_type(**value)
    return GPUConfig(**kwargs)


def fermi_gtx480() -> GPUConfig:
    """Full-scale topology approximating the GTX480 (Fermi): 16 SMs x 48
    warps, 8 partitions, 768 KiB total L2.

    The GTX480 has 15 SMs and 6 partitions; 6 is not a power of two, so
    this uses 16 SMs and 8 partitions (the same 2:1 ratio) with the L2
    slice size adjusted to keep the 768 KiB total, preserving capacity
    and bandwidth ratios with power-of-two address interleaving.
    """
    return GPUConfig(
        core=CoreConfig(n_sms=16, warps_per_sm=48),
        # 96 KiB x 8 partitions = the GTX480's 768 KiB total; 6-way keeps
        # the set count a power of two at that capacity.
        l2=L2Config(size_bytes=96 * 1024, assoc=6),
        n_partitions=8,
    )


def small_gpu() -> GPUConfig:
    """Reduced-scale experiment baseline (8 SMs, 4 partitions).

    Keeps the GTX480 SM:partition ratio (15:6 ~ 8:4 = 2:1) and every Table I
    queue/MSHR/bank parameter at its paper value, so congestion forms at the
    same structures; used as the default for all experiments because pure
    Python cannot simulate the full chip in reasonable time.
    """
    return GPUConfig()


def tiny_gpu() -> GPUConfig:
    """Minimal configuration for unit tests (2 SMs, 2 partitions)."""
    return GPUConfig(
        core=CoreConfig(n_sms=2, warps_per_sm=4, mem_pipeline_width=4),
        l1=L1Config(size_bytes=4 * 1024, mshr_entries=8, miss_queue_depth=4),
        l2=L2Config(size_bytes=16 * 1024, banks=2, access_queue_depth=4,
                    miss_queue_depth=4, response_queue_depth=4,
                    mshr_entries=8, bank_latency=8),
        icnt=ICNTConfig(network_latency=10),
        dram=DRAMConfig(sched_queue_depth=8, banks=4, t_rcd=4, t_rp=4, t_cas=4),
        n_partitions=2,
    )
