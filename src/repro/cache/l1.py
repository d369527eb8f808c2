"""Per-SM L1 data cache.

Models the Fermi/GPGPU-Sim L1D policy: write-through with no write
allocation, write-evict on store hits (stores always travel to L2), and a
fixed-size MSHR file with merging.  Misses enter the Table I "L1 miss
queue", which the request crossbar drains.

Three resources can refuse an access — MSHR entries, MSHR merge slots and
miss-queue slots — and each refusal stalls the SM's memory pipeline for the
cycle (returned as a distinct :class:`AccessResult` so the SM can account
throttling by cause).

Figure 1's *magic memory* mode short-circuits everything below this cache:
misses still allocate and merge MSHRs (the L1's own resources remain
modelled) but are filled after exactly ``config.magic_latency`` cycles
instead of entering the miss queue.
"""

from __future__ import annotations

import enum

from repro.cache.mshr import MSHRProbe, MSHRTable
from repro.cache.tag_array import TagArray
from repro.mem.pipe import DelayPipe
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.config import GPUConfig
from repro.utils.stats import Accumulator, Histogram


class AccessResult(enum.Enum):
    """Outcome of presenting one transaction to the L1."""

    HIT = "hit"
    #: Miss accepted (MSHR allocated or merged, queued downstream).
    QUEUED = "queued"
    #: Store accepted into the write-through path.
    STORE_SENT = "store_sent"
    STALL_MSHR_FULL = "stall_mshr_full"
    STALL_MERGE_FULL = "stall_merge_full"
    STALL_MISSQ_FULL = "stall_missq_full"


# Plain attribute (not a property) because the SM consults it on the memory
# pipeline's hottest path.
for _result in AccessResult:
    _result.is_stall = _result.name.startswith("STALL")

# Members are singletons, so identity hashing is equivalent to the default
# Enum hash (which is a Python-level function, measurably hot in the
# per-cycle stall accounting dicts); object.__hash__ runs in C.
AccessResult.__hash__ = object.__hash__


class L1DCache:
    """One SM's private L1 data cache.

    Not an engine component: its owning SM drives it each cycle via
    :meth:`collect_completions` / :meth:`try_access`, and the request
    crossbar drains :attr:`miss_queue`.
    """

    def __init__(self, name: str, config: GPUConfig, sm_id: int) -> None:
        self.name = name
        self.sm_id = sm_id
        self._config = config
        cfg = config.l1
        n_sets = cfg.size_bytes // (config.line_bytes * cfg.assoc)
        self.tags = TagArray(f"{name}.tags", n_sets, cfg.assoc)
        self.mshr = MSHRTable(f"{name}.mshr", cfg.mshr_entries, cfg.mshr_max_merge)
        self.miss_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.miss_queue", cfg.miss_queue_depth
        )
        #: Occupancy aliases (containers mutated in place) for the
        #: per-access resource checks: a ``len()`` instead of an accessor.
        self._mshr_entries = self.mshr._entries
        self._missq_items = self.miss_queue._items
        self._hit_pipe: DelayPipe[MemoryRequest] = DelayPipe(
            f"{name}.hit_pipe", cfg.hit_latency
        )
        self._fill_pipe: DelayPipe[MemoryRequest] = DelayPipe(
            f"{name}.fill_pipe", cfg.fill_latency
        )
        self._magic = config.magic_memory
        self._magic_latency = config.magic_latency
        self._write_back = cfg.write_policy == "write_back"
        #: Dirty lines evicted by fills, awaiting a miss-queue slot
        #: (write-back policy only).
        self._pending_writebacks: list[int] = []
        #: Response-network traversal latency applied to arriving fills.
        self._network_latency = config.icnt.network_latency
        # --- statistics ---
        self.miss_latency = Accumulator(f"{name}.miss_latency")
        self.miss_latency_hist = Histogram(f"{name}.miss_latency_hist")
        self.stall_counts: dict[AccessResult, int] = {
            r: 0 for r in AccessResult if r.is_stall
        }
        #: Increments whenever a stall-clearing event occurs (fill installed,
        #: MSHR released, miss-queue slot freed); lets the SM skip futile
        #: retries of a stalled transaction.
        self.fills_installed: int = 0
        self.stores_sent: int = 0
        #: Stores absorbed locally (write-back policy hits).
        self.store_hits_local: int = 0
        #: Dirty lines written back to L2 (write-back policy).
        self.writebacks_sent: int = 0
        self.hits: int = 0
        self.misses_issued: int = 0

    # ------------------------------------------------------------------
    # SM-facing interface
    # ------------------------------------------------------------------
    def try_access(self, request: MemoryRequest, now: int) -> AccessResult:
        """Present one transaction; returns how it was disposed."""
        request.timestamps["l1_access"] = now
        if request.kind is AccessKind.STORE:
            return self._access_store(request, now)
        return self._access_load(request, now)

    def _access_load(self, request: MemoryRequest, now: int) -> AccessResult:
        if self.tags.lookup(request.line, now):
            self.hits += 1
            request.timestamps["l1_hit"] = now
            self._hit_pipe.insert(request, now)
            return AccessResult.HIT
        probe = self.mshr.probe(request.line)
        if probe is MSHRProbe.MERGEABLE:
            self.mshr.merge(request, now)
            request.timestamps["l1_miss"] = now
            return AccessResult.QUEUED
        if probe is MSHRProbe.ENTRY_FULL:
            self.stall_counts[AccessResult.STALL_MERGE_FULL] += 1
            return AccessResult.STALL_MERGE_FULL
        # New miss: needs an MSHR entry and (unless magic) a miss-queue slot.
        if len(self._mshr_entries) >= self.mshr.capacity:
            self.stall_counts[AccessResult.STALL_MSHR_FULL] += 1
            return AccessResult.STALL_MSHR_FULL
        if not self._magic and len(self._missq_items) >= self.miss_queue.capacity:
            self.stall_counts[AccessResult.STALL_MISSQ_FULL] += 1
            return AccessResult.STALL_MISSQ_FULL
        self.mshr.allocate(request, now)
        request.timestamps["l1_miss"] = now
        self.misses_issued += 1
        if self._magic:
            self._fill_pipe.insert_at(request, now + self._magic_latency)
        else:
            self.miss_queue.push(request, now)
        return AccessResult.QUEUED

    def _access_store(self, request: MemoryRequest, now: int) -> AccessResult:
        if self._write_back:
            return self._access_store_write_back(request, now)
        # Write-through with write-evict (the Fermi/paper baseline): a store
        # hit invalidates the local copy so later loads refetch the
        # (updated) line from L2, and every store travels downstream.
        if not self._magic and len(self._missq_items) >= self.miss_queue.capacity:
            self.stall_counts[AccessResult.STALL_MISSQ_FULL] += 1
            return AccessResult.STALL_MISSQ_FULL
        self.tags.invalidate(request.line)
        self.stores_sent += 1
        request.timestamps["l1_store"] = now
        if not self._magic:
            self.miss_queue.push(request, now)
        else:
            request.retired = True  # magic memory absorbs the store here
        return AccessResult.STORE_SENT

    def _access_store_write_back(
        self, request: MemoryRequest, now: int
    ) -> AccessResult:
        """Write-back, write-allocate: hits dirty the local line; misses
        fetch the line (read-for-ownership) and dirty it on fill."""
        if self.tags.lookup(request.line, now):
            self.tags.mark_dirty(request.line)
            self.store_hits_local += 1
            request.timestamps["l1_store"] = now
            request.retired = True  # absorbed locally; no downstream traffic
            return AccessResult.HIT
        probe = self.mshr.probe(request.line)
        if probe is MSHRProbe.MERGEABLE:
            self.mshr.merge(request, now)  # taints the entry dirty
            request.timestamps["l1_miss"] = now
            return AccessResult.QUEUED
        if probe is MSHRProbe.ENTRY_FULL:
            self.stall_counts[AccessResult.STALL_MERGE_FULL] += 1
            return AccessResult.STALL_MERGE_FULL
        if len(self._mshr_entries) >= self.mshr.capacity:
            self.stall_counts[AccessResult.STALL_MSHR_FULL] += 1
            return AccessResult.STALL_MSHR_FULL
        if not self._magic and len(self._missq_items) >= self.miss_queue.capacity:
            self.stall_counts[AccessResult.STALL_MISSQ_FULL] += 1
            return AccessResult.STALL_MISSQ_FULL
        self.mshr.allocate(request, now)  # records has_store
        request.timestamps["l1_miss"] = now
        self.misses_issued += 1
        if self._magic:
            self._fill_pipe.insert_at(request, now + self._magic_latency)
        else:
            # The L2 must treat this as a fetch (the dirty data stays in
            # the L1 until eviction), so the downstream request is a LOAD.
            request.kind = AccessKind.LOAD
            self.miss_queue.push(request, now)
        return AccessResult.QUEUED

    def collect_completions(self, now: int) -> list[MemoryRequest]:
        """Advance internal pipes; return load transactions completed this cycle.

        Fills are installed into the tag array, their MSHR entries released,
        and every merged requester returned alongside completed hits.
        """
        completed: list[MemoryRequest] = []
        self._drain_writebacks(now)
        for response in self._fill_pipe.drain_ready(now):
            line = response.line
            entry = self.mshr.release(line, now)
            evicted = self.tags.fill(line, now, dirty=entry.has_store)
            if evicted is not None and evicted.dirty:
                self._pending_writebacks.append(evicted.line)
            self.fills_installed += 1
            for original in entry.requests:
                timestamps = original.timestamps
                timestamps["l1_fill"] = now
                missed_at = timestamps.get("l1_miss")
                if missed_at is not None:
                    waited = now - missed_at
                    self.miss_latency.add(waited)
                    self.miss_latency_hist.add(waited)
                completed.append(original)
        completed.extend(self._hit_pipe.drain_ready(now))
        return completed

    def _drain_writebacks(self, now: int) -> None:
        """Send pending dirty evictions to L2 as stores (write-back mode)."""
        if not self._pending_writebacks:
            return
        if self._magic:
            self.writebacks_sent += len(self._pending_writebacks)
            self._pending_writebacks.clear()
            return
        while (
            self._pending_writebacks
            and len(self._missq_items) < self.miss_queue.capacity
        ):
            line = self._pending_writebacks.pop(0)
            writeback = MemoryRequest(
                rid=-(line + 1) & 0x7FFFFFFF,
                kind=AccessKind.STORE,
                line=line,
                sm_id=self.sm_id,
                warp_id=-1,
            )
            writeback.timestamps["l1_writeback"] = now
            self.writebacks_sent += 1
            self.miss_queue.push(writeback, now)

    # ------------------------------------------------------------------
    # memory-side interface
    # ------------------------------------------------------------------
    def deliver_fill(self, response: MemoryRequest, now: int) -> None:
        """Accept a fill response from the response crossbar.

        The configured network traversal latency is applied here (the
        crossbar itself models only port bandwidth).
        """
        self._fill_pipe.insert(response, now, extra_delay=self._network_latency)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return not (
            self._mshr_entries
            or self._missq_items
            or self._hit_pipe._fifo
            or self._fill_pipe._fifo
            or self._pending_writebacks
        )

    def finalize(self, now: int) -> None:
        self.miss_queue.finalize(now)
        self.mshr.finalize(now)

    def inflight_requests(self):
        """Requests in the cache's internal pipes (sanitizer hook)."""
        yield from self._hit_pipe
        yield from self._fill_pipe

    def resource_epoch(self) -> int:
        """Monotone counter of stall-clearing events.

        A transaction that stalled can only succeed after a fill installs,
        an MSHR entry releases or a miss-queue slot frees; the SM retries
        only when this value changes.
        """
        return self.fills_installed + self.mshr.releases + self.miss_queue.pops

    @property
    def total_stalls(self) -> int:
        return sum(self.stall_counts.values())
