"""Flit-based crossbar.

Two instances connect the SMs to the memory partitions: a *request* network
(L1 miss queues -> L2 access queues) and a *response* network (L2 response
queues -> L1 fill ports).  Each network port consists of
``config.icnt.channel_lanes`` parallel links, each moving one flit of
``config.icnt.flit_bytes`` per cycle — the Table I "Flit size (crossbar)"
parameter is therefore the per-port bandwidth of the L1<->L2 path.  With
the baseline 4-byte flit and 4 lanes, a 128-byte line response occupies a
port for 9 cycles, making the response network a first-order bandwidth
constraint (exactly the L1<->L2 congestion the paper characterizes).

Switching is wormhole-like: once a packet wins an output, both its input
and the output stay locked to it until the tail flit is delivered, and the
tail flit is only sent when the destination can accept the packet — so a
congested destination exerts back-pressure through the switch to the
source queues.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.config import GPUConfig


@dataclass(slots=True)
class PacketSink:
    """Destination-port behaviour: admission test + delivery action."""

    can_accept: Callable[[MemoryRequest], bool]
    accept: Callable[[MemoryRequest, int], None]


@dataclass(slots=True)
class _Packet:
    request: MemoryRequest
    dest: int
    flits_left: int


class _InputPort:
    def __init__(self, capacity_pkts: int) -> None:
        self.fifo: deque[_Packet] = deque()
        self.capacity = capacity_pkts
        self.locked_to: int | None = None


def port_cycles(
    flit_count: Callable[[bool], int], lanes: int
) -> tuple[int, int]:
    """Port occupancy in cycles, ``ceil(flits / lanes)``, of a read and a
    write packet; index the pair with ``request.kind is not LOAD``."""
    read, write = (
        max(1, -(-flit_count(is_write) // lanes)) for is_write in (False, True)
    )
    return read, write


class Crossbar(Component):
    """N-input x M-output crossbar moving one flit per port per cycle."""

    def __init__(
        self,
        name: str,
        config: GPUConfig,
        sources: list[StatQueue[MemoryRequest]],
        sinks: list[PacketSink],
        route: Callable[[MemoryRequest], int],
        flit_count: Callable[[bool], int],
        stamp_hop: str = "icnt",
    ) -> None:
        self.name = name
        self._sources = sources
        self._sinks = sinks
        self._route = route
        #: Packet port occupancy by ``is_write``, resolved once.
        self._port_cycles = port_cycles(flit_count, config.icnt.channel_lanes)
        self._in_hop = f"{stamp_hop}_in"
        self._out_hop = f"{stamp_hop}_out"
        self._inputs = [
            _InputPort(config.icnt.input_queue_pkts) for _ in sources
        ]
        #: Source deque aliases (mutated in place by StatQueue), saving an
        #: attribute hop in the per-cycle injection/wake scans.
        self._src_items = [src._items for src in self._sources]
        #: (source queue, its deque, input port) rows for injection.
        self._pairs = list(zip(self._sources, self._src_items, self._inputs))
        #: Number of input ports holding at least one packet.
        self._active_inputs = 0
        #: Output -> input currently locked to it (None = free).
        self._out_lock: list[int | None] = [None] * len(sinks)
        self._rr: list[int] = [0] * len(sinks)
        #: Per-output count of *unlocked* input ports whose head packet
        #: targets it — the flat-array grant index: an output with a zero
        #: count and no lock has no work, so arbitration skips it without
        #: scanning the input ports.
        self._head_dests: list[int] = [0] * len(sinks)
        # --- statistics ---
        self.flits_sent: int = 0
        self.packets_delivered: int = 0
        #: Output-port cycles wasted with a tail flit blocked by its sink.
        self.delivery_blocked_cycles: int = 0
        self.cycles: int = 0

    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        self.cycles += 1
        self._inject(now)
        if self._active_inputs:
            self._arbitrate_and_transfer(now)

    def next_wake(self, now: int) -> int:
        if self._active_inputs:
            return now
        for items in self._src_items:
            if items:  # non-empty source: _inject acts this cycle
                return now
        return WAKE_NEVER

    def fast_forward(self, cycles: int) -> None:
        self.cycles += cycles  # the denominator of `utilization`

    def _inject(self, now: int) -> None:
        """Move packets from source queues into input-port FIFOs."""
        port_cycles = self._port_cycles
        in_hop = self._in_hop
        for src, items, port in self._pairs:
            if not items:
                continue
            fifo = port.fifo
            while items and len(fifo) < port.capacity:
                request = src.pop(now)
                request.timestamps[in_hop] = now
                dest = self._route(request)
                if not fifo:
                    self._active_inputs += 1
                    if port.locked_to is None:
                        self._head_dests[dest] += 1
                fifo.append(
                    _Packet(
                        request=request,
                        dest=dest,
                        flits_left=port_cycles[request.kind is not AccessKind.LOAD],
                    )
                )

    def _arbitrate_and_transfer(self, now: int) -> None:
        n_inputs = len(self._inputs)
        head_dests = self._head_dests
        out_lock = self._out_lock
        for out_idx, sink in enumerate(self._sinks):
            in_idx = out_lock[out_idx]
            if in_idx is None:
                if not head_dests[out_idx]:
                    continue  # no unlocked head targets this output
                in_idx = self._grant(out_idx, n_inputs)
                if in_idx is None:  # pragma: no cover - count says one exists
                    continue
            port = self._inputs[in_idx]
            packet = port.fifo[0]
            if packet.flits_left > 1:
                packet.flits_left -= 1
                self.flits_sent += 1
                continue
            # Tail flit: deliver only if the sink can take the packet.
            if not sink.can_accept(packet.request):
                self.delivery_blocked_cycles += 1
                continue
            self.flits_sent += 1
            self.packets_delivered += 1
            packet.request.timestamps[self._out_hop] = now
            sink.accept(packet.request, now)
            port.fifo.popleft()
            if not port.fifo:
                self._active_inputs -= 1
            else:
                head_dests[port.fifo[0].dest] += 1
            port.locked_to = None
            out_lock[out_idx] = None

    def _grant(self, out_idx: int, n_inputs: int) -> int | None:
        """Round-robin pick of an unlocked input whose head targets out_idx."""
        start = self._rr[out_idx]
        inputs = self._inputs
        for offset in range(n_inputs):
            in_idx = (start + offset) % n_inputs
            port = inputs[in_idx]
            if port.locked_to is not None or not port.fifo:
                continue
            if port.fifo[0].dest != out_idx:
                continue
            port.locked_to = out_idx
            self._out_lock[out_idx] = in_idx
            self._rr[out_idx] = (in_idx + 1) % n_inputs
            self._head_dests[out_idx] -= 1
            return in_idx
        return None

    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return all(not port.fifo for port in self._inputs)

    def inflight(self):
        for port in self._inputs:
            for packet in port.fifo:
                yield packet.request

    def counters(self):
        return (
            (f"{self.name}_flits_sent", self.flits_sent),
            (f"{self.name}_packets_delivered", self.packets_delivered),
            (
                f"{self.name}_delivery_blocked_cycles",
                self.delivery_blocked_cycles,
            ),
        )

    @property
    def utilization(self) -> float:
        """Flits moved per output-port cycle (0..1 per port on average)."""
        total_port_cycles = self.cycles * len(self._sinks)
        return self.flits_sent / total_port_cycles if total_port_cycles else 0.0
