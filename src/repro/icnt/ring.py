"""Bidirectional ring interconnect (alternative to the crossbar).

GPUs with few memory partitions sometimes use ring NoCs instead of
crossbars; the ring trades wiring cost for hop latency and for *shared*
link bandwidth — traffic between distant stations occupies every link on
its path.  Provided as an ablation topology: the same Table I flit-size
lever applies, but congestion forms on links instead of ports, so the
L1<->L2 bottleneck is sharper at equal raw bandwidth.

Model
-----
Stations (SM side and partition side, interleaved around the ring) are
connected by directed links in both rotation directions; a packet takes
the direction with fewer hops.  Each link carries ``channel_lanes`` flits
per cycle, so a packet serializes for ``ceil(flits/lanes)`` cycles per
link and additionally pays ``ring_hop_latency`` pipeline cycles per hop.
Link occupancy is booked at injection in path order — an approximation of
wormhole flow (documented; acceptable for topology ablations).  Arrivals
wait in a bounded arrival buffer when the destination queue is full,
blocking that buffer's future arrivals (back-pressure).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.errors import ConfigError
from repro.mem.pipe import DelayPipe
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.config import GPUConfig
from repro.icnt.crossbar import PacketSink, port_cycles


class _Link:
    __slots__ = ("free_at", "busy_cycles")

    def __init__(self) -> None:
        self.free_at = 0
        self.busy_cycles = 0


class RingNetwork(Component):
    """One-direction-choice bidirectional ring."""

    #: Arrival-buffer capacity per output station.
    ARRIVAL_BUFFER = 4

    def __init__(
        self,
        name: str,
        config: GPUConfig,
        sources: list[StatQueue[MemoryRequest]],
        sinks: list[PacketSink],
        route: Callable[[MemoryRequest], int],
        flit_count: Callable[[bool], int],
        stamp_hop: str = "icnt",
        hop_latency: int = 2,
    ) -> None:
        if hop_latency < 0:
            raise ConfigError("ring hop latency must be >= 0")
        self.name = name
        self._sources = sources
        self._sinks = sinks
        self._route = route
        self._in_hop = f"{stamp_hop}_in"
        self._out_hop = f"{stamp_hop}_out"
        self._hop_latency = hop_latency
        #: Packet serialization per link by ``is_write``, resolved once.
        self._port_cycles = port_cycles(flit_count, config.icnt.channel_lanes)

        # Interleave source and sink stations around the ring.
        self._n_stations = len(sources) + len(sinks)
        self._source_pos: list[int] = []
        self._sink_pos: list[int] = []
        src, dst = list(range(len(sources))), list(range(len(sinks)))
        position = 0
        while src or dst:
            if src:
                self._source_pos.append(position)
                position += 1
                src.pop()
            if dst:
                self._sink_pos.append(position)
                position += 1
                dst.pop()
        # Directed links: cw[i] is station i -> i+1; ccw[i] is i+1 -> i.
        self._cw = [_Link() for _ in range(self._n_stations)]
        self._ccw = [_Link() for _ in range(self._n_stations)]
        self._in_flight: DelayPipe[tuple[MemoryRequest, int]] = DelayPipe(
            f"{name}.flight", 0
        )
        self._arrivals: list[deque[MemoryRequest]] = [
            deque() for _ in sinks
        ]
        # --- statistics ---
        self.packets_delivered = 0
        self.total_hops = 0
        self.delivery_blocked_cycles = 0
        self.cycles = 0

    # ------------------------------------------------------------------
    def _path(self, src_pos: int, dst_pos: int):
        """(links, hops) for the shorter rotation direction."""
        n = self._n_stations
        cw_hops = (dst_pos - src_pos) % n
        ccw_hops = (src_pos - dst_pos) % n
        if cw_hops <= ccw_hops:
            return (
                [self._cw[(src_pos + i) % n] for i in range(cw_hops)],
                cw_hops,
            )
        return (
            [self._ccw[(src_pos - 1 - i) % n] for i in range(ccw_hops)],
            ccw_hops,
        )

    def step(self, now: int) -> None:
        self.cycles += 1
        self._deliver(now)
        self._inject(now)

    def next_wake(self, now: int) -> int:
        for buffer in self._arrivals:
            if buffer:
                return now  # arrivals retry their sink every cycle
        for src in self._sources:
            if src._items:
                return now
        wake = self._in_flight.next_ready_time()
        if wake is None:
            return WAKE_NEVER
        return wake if wake > now else now

    def fast_forward(self, cycles: int) -> None:
        self.cycles += cycles  # the denominator of `utilization`

    def _inject(self, now: int) -> None:
        for idx, source in enumerate(self._sources):
            if not source._items:
                continue
            request = source._items[0]
            out_idx = self._route(request)
            links, hops = self._path(
                self._source_pos[idx], self._sink_pos[out_idx])
            serialize = self._port_cycles[request.kind is not AccessKind.LOAD]
            # Back-pressure: refuse injection while the first link is booked
            # too far ahead or the destination's arrival buffer is full.
            if links and links[0].free_at - now > 4 * serialize:
                continue
            if len(self._arrivals[out_idx]) >= self.ARRIVAL_BUFFER:
                continue
            source.pop(now)
            request.timestamps[self._in_hop] = now
            arrive = now
            for link in links:
                start = max(arrive, link.free_at)
                link.free_at = start + serialize
                link.busy_cycles += serialize
                arrive = start + serialize + self._hop_latency
            self.total_hops += hops
            self._in_flight.insert_at((request, out_idx), arrive)

    def _deliver(self, now: int) -> None:
        for request, out_idx in self._in_flight.drain_ready(now):
            self._arrivals[out_idx].append(request)
        for out_idx, buffer in enumerate(self._arrivals):
            if not buffer:
                continue
            sink = self._sinks[out_idx]
            while buffer and sink.can_accept(buffer[0]):
                request = buffer.popleft()
                request.timestamps[self._out_hop] = now
                sink.accept(request, now)
                self.packets_delivered += 1
            if buffer:
                self.delivery_blocked_cycles += 1

    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return self._in_flight.empty and all(
            not buffer for buffer in self._arrivals
        )

    def inflight(self):
        for request, _ in self._in_flight:
            yield request
        for buffer in self._arrivals:
            yield from buffer

    def counters(self):
        return (
            (f"{self.name}_packets_delivered", self.packets_delivered),
            (f"{self.name}_total_hops", self.total_hops),
            (
                f"{self.name}_delivery_blocked_cycles",
                self.delivery_blocked_cycles,
            ),
        )

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.packets_delivered \
            if self.packets_delivered else 0.0

    @property
    def utilization(self) -> float:
        """Average busy fraction across all directed links."""
        if not self.cycles:
            return 0.0
        links = self._cw + self._ccw
        return sum(l.busy_cycles for l in links) / (len(links) * self.cycles)
