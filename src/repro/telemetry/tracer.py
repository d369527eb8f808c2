"""Per-request tracing: Chrome trace events and hop-latency histograms.

Every :class:`~repro.mem.request.MemoryRequest` already records per-hop
``timestamps`` as it travels L1 → crossbar → L2 → DRAM and back.  The
:class:`RequestTracer` samples requests at creation time with a
deterministic stride (no RNG: request *k* is kept iff ``k % stride == 0``,
in factory order, which is itself deterministic for a given seed) and,
after the run, converts each sampled request's itinerary into:

* **Chrome trace-event JSON** — one complete-event ("ph": "X") span per
  consecutive hop pair, placed on the track of the component where the
  span *starts* (one track per component: ``sm0.l1``, ``icnt.request``,
  ``l2_p1``, ``dram_p0``, ...).  One simulated cycle maps to one
  microsecond of trace time.  Load the file in chrome://tracing or
  https://ui.perfetto.dev.
* a **hop-latency histogram registry** — a
  :class:`~repro.utils.stats.Histogram` per hop pair, for latency-tail
  questions ("how long do requests sit between ``l2_miss`` and
  ``dram_in``?") that per-run means cannot answer;
* a streamed :class:`LatencyBreakdown` — each sampled load is folded
  into the :data:`SEGMENTS` averages once it has its ``l1_fill`` stamp
  and has retired, then dropped, so retention is bounded by the requests
  in flight, not by run length.

The tracer chains onto the request factory's existing creation listener
(so it composes with the :mod:`repro.analysis` sanitizer) and keeps at
most ``limit`` requests for the Chrome trace; past the cap it only
counts, so memory stays bounded on long runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import UsageError
from repro.utils.stats import Accumulator, Histogram
from repro.utils.tables import render_table

#: Default stride between sampled requests (1 = trace everything).
DEFAULT_TRACE_STRIDE = 16
#: Default cap on requests kept for the Chrome trace.
DEFAULT_TRACE_LIMIT = 4_096
#: Requests the breakdown holds before sweeping out retired ones.
SWEEP_FLOOR = 256

#: Latency-breakdown segment of the L1 miss -> fill round trip ->
#: (start hop, end hop).
SEGMENTS: dict[str, tuple[str, str]] = {
    "l1_to_l2": ("l1_miss", "l2_in"),  # L1 miss queue + request crossbar
    "l2_queue": ("l2_in", "l2_probed"),  # access queue + bank pipeline
    "l2_to_dram": ("l2_miss", "dram_in"),  # L2 miss queue admission
    "dram_service": ("dram_in", "dram_done"),  # sched queue + bank + bus
    "dram_to_l2": ("dram_done", "l2_out"),  # return queue, fill, data port
    "l2_hit_out": ("l2_probed", "l2_out"),  # data port + response queue
    "response_network": ("l2_out", "l1_fill"),  # response crossbar + network
}


@dataclass
class LatencyBreakdown:
    """Average per-segment latencies of one run's completed loads."""

    benchmark: str = ""
    #: segment -> Accumulator over requests that traversed it.
    segments: dict[str, Accumulator] = field(default_factory=dict)
    total_l2_hit: Accumulator = field(
        default_factory=lambda: Accumulator("total_l2_hit"))
    total_l2_miss: Accumulator = field(
        default_factory=lambda: Accumulator("total_l2_miss"))

    def observe(self, request) -> None:
        """Fold one completed load's timestamps into the breakdown."""
        for name, (start, end) in SEGMENTS.items():
            delta = request.latency(start, end)
            if delta is not None:
                self.segments.setdefault(name, Accumulator(name)).add(delta)
        total = request.latency("l1_miss", "l1_fill")
        if total is None:
            return
        if request.l2_miss:
            self.total_l2_miss.add(total)
        else:
            self.total_l2_hit.add(total)

    def mean(self, segment: str) -> float:
        acc = self.segments.get(segment)
        return acc.mean if acc else 0.0

    def to_table(self) -> str:
        rows = [(name, self.segments[name])
                for name in SEGMENTS if name in self.segments]
        rows += [("TOTAL (L2 hits)", self.total_l2_hit),
                 ("TOTAL (L2 misses)", self.total_l2_miss)]
        return render_table(
            ["segment", "avg cycles", "requests"],
            [[name, f"{acc.mean:.1f}", acc.count] for name, acc in rows],
            title=f"Latency breakdown: {self.benchmark}")


def hop_track(hop: str, request, mapper=None) -> str:
    """Component track name for ``hop`` of ``request``.

    The hop vocabulary is owned by the components that stamp it
    (``l1_*`` by the L1, ``icnt_req_*`` / ``icnt_resp_*`` by the
    networks, ``l2_*`` by the slice, ``dram_*`` by the channel); this maps
    each prefix back to the concrete instance using the request's SM id
    and, when an :class:`~repro.mem.address.AddressMapper` is given, its
    line's partition.
    """
    if hop.startswith("icnt_req"):
        return "icnt.request"
    if hop.startswith("icnt_resp"):
        return "icnt.response"
    if hop.startswith("l1"):
        if request.sm_id < 0:
            return "l1"
        return f"sm{request.sm_id}.l1"
    partition = mapper.partition(request.line) if mapper is not None else None
    suffix = "" if partition is None else f"_p{partition}"
    if hop.startswith("l2"):
        return f"l2{suffix}"
    if hop.startswith("dram"):
        return f"dram{suffix}"
    return "other"


class RequestTracer:
    """Stride-samples requests and renders their journeys.

    Parameters
    ----------
    mapper:
        Optional :class:`~repro.mem.address.AddressMapper`; with it, L2
        and DRAM spans land on per-partition tracks.
    stride:
        Keep every ``stride``-th factory-created request.
    limit:
        Cap on requests kept for the Chrome trace (0 keeps none; later
        samples are only counted); the breakdown sees every sample.
    """

    def __init__(
        self,
        mapper=None,
        *,
        stride: int = DEFAULT_TRACE_STRIDE,
        limit: int = DEFAULT_TRACE_LIMIT,
    ) -> None:
        if stride < 1:
            raise UsageError(f"trace stride must be >= 1, got {stride}")
        if limit < 0:
            raise UsageError(f"trace limit must be >= 0, got {limit}")
        self._mapper = mapper
        self.stride = stride
        self.limit = limit
        self._traced: list = []
        #: Sampled requests not yet folded into the breakdown.
        self._inflight: list = []
        self._sweep_at = SWEEP_FLOOR
        self._breakdown = LatencyBreakdown()
        #: Factory-created requests observed (sampled or not).
        self.created = 0
        #: Samples skipped because the retention cap was hit.
        self.overflowed = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        gpu,
        *,
        stride: int = DEFAULT_TRACE_STRIDE,
        limit: int = DEFAULT_TRACE_LIMIT,
    ) -> "RequestTracer":
        """Attach to a built GPU, chaining any existing factory listener."""
        tracer = cls(gpu.mapper, stride=stride, limit=limit)
        tracer._breakdown.benchmark = gpu.kernel.name
        previous = gpu.factory.listener

        def listener(request):
            if previous is not None:
                previous(request)
            tracer.on_create(request)

        gpu.factory.listener = listener
        return tracer

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def on_create(self, request) -> None:
        """Factory listener: stride-sample one created request."""
        index = self.created
        self.created += 1
        if index % self.stride:
            return
        self._inflight.append(request)
        if len(self._inflight) >= self._sweep_at:
            self._fold_retired()
        if len(self._traced) >= self.limit:
            self.overflowed += 1
            return
        self._traced.append(request)

    def _fold_retired(self) -> None:
        """Fold retired loads, drop every retired request; sweep again
        once the survivors have doubled."""
        observe = self._breakdown.observe
        inflight = []
        for request in self._inflight:
            if not request.retired:
                inflight.append(request)
            elif "l1_fill" in request.timestamps:
                observe(request)
        self._inflight = inflight
        self._sweep_at = max(SWEEP_FLOOR, 2 * len(inflight))

    @property
    def sampled(self) -> int:
        return len(self._traced)

    @property
    def pending(self) -> int:
        """Sampled requests the breakdown holds, not yet seen retired."""
        return len(self._inflight)

    def latency_breakdown(self) -> LatencyBreakdown:
        """The breakdown over every sampled load retired so far."""
        self._fold_retired()
        return self._breakdown

    @property
    def requests(self) -> list:
        """The sampled requests (live objects; timestamps final post-run)."""
        return list(self._traced)

    # ------------------------------------------------------------------
    # Chrome trace rendering
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Render the sampled journeys as a Chrome trace-event object.

        Spans are complete events whose ``ts``/``dur`` are in
        microseconds with one cycle == 1 us; every recorded hop of every
        sampled request appears as a span boundary (``args.begin_hop`` /
        ``args.end_hop``).
        """
        events: list[dict] = []
        tracks: dict[str, int] = {}

        def tid(track: str) -> int:
            if track not in tracks:
                tracks[track] = len(tracks) + 1
            return tracks[track]

        for request in self._traced:
            hops = request.hops()
            if not hops:
                continue
            common = {
                "rid": request.rid,
                "kind": request.kind.value,
                "line": request.line,
                "sm": request.sm_id,
                "warp": request.warp_id,
            }
            if len(hops) == 1:
                hop, cycle = hops[0]
                events.append({
                    "name": hop,
                    "cat": "request",
                    "ph": "X",
                    "ts": cycle,
                    "dur": 0,
                    "pid": 0,
                    "tid": tid(hop_track(hop, request, self._mapper)),
                    "args": {**common, "begin_hop": hop, "end_hop": hop},
                })
                continue
            for (begin, t0), (end, t1) in zip(hops, hops[1:]):
                events.append({
                    "name": f"{begin}->{end}",
                    "cat": "request",
                    "ph": "X",
                    "ts": t0,
                    "dur": t1 - t0,
                    "pid": 0,
                    "tid": tid(hop_track(begin, request, self._mapper)),
                    "args": {**common, "begin_hop": begin, "end_hop": end},
                })

        metadata: list[dict] = [{
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "repro memory hierarchy"},
        }]
        for track, track_id in tracks.items():
            metadata.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": track_id,
                "args": {"name": track},
            })
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ns",
            "otherData": {
                "source": "repro.telemetry.RequestTracer",
                "cycles_per_us": 1,
                "requests_created": self.created,
                "requests_sampled": self.sampled,
                "stride": self.stride,
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        """The Chrome trace as JSON text (compact by default)."""
        return json.dumps(
            self.to_chrome_trace(),
            indent=indent,
            separators=None if indent else (",", ":"),
        )

    # ------------------------------------------------------------------
    # hop-latency histograms
    # ------------------------------------------------------------------
    def hop_histograms(self, bucket_width: int = 8) -> dict[str, Histogram]:
        """``"begin->end" -> Histogram`` over the sampled requests.

        Keys appear in first-traversal order, so the registry reads
        roughly in request-path order.
        """
        registry: dict[str, Histogram] = {}
        for request in self._traced:
            hops = request.hops()
            for (begin, t0), (end, t1) in zip(hops, hops[1:]):
                key = f"{begin}->{end}"
                hist = registry.get(key)
                if hist is None:
                    hist = registry[key] = Histogram(key, bucket_width)
                hist.add(t1 - t0)
        return registry

    def hop_summary(self) -> list[dict]:
        """Per-hop latency digest (count / mean / p50 / p95), JSON-ready."""
        return [
            {
                "hop": key,
                "count": hist.count,
                "mean": hist.mean,
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
            }
            for key, hist in self.hop_histograms().items()
        ]
