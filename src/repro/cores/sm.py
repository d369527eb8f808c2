"""Streaming multiprocessor.

Per cycle the SM:

1. collects completed L1 transactions (hits and fills) and wakes warps
   whose load instructions finished;
2. drains its LD/ST queue into the L1 at up to ``mem_pipeline_width``
   transactions per cycle (Table I "Memory pipeline width"), stopping on
   the first L1 refusal — back-pressure from a congested L1/L2 therefore
   throttles the memory pipeline, the paper's point 3;
3. issues up to ``issue_width`` instructions from ready warps chosen by
   the warp scheduler.

IPC is ``instructions / cycles`` summed over SMs; warps block on their MLP
limit and on membars, so exposed memory latency directly suppresses issue.
"""

from __future__ import annotations

from collections import deque

from repro.cache.l1 import AccessResult, L1DCache
from repro.cores.scheduler import LRRScheduler, make_warp_scheduler
from repro.cores.warp import LoadInstr, Warp, WarpState
from repro.mem.request import AccessKind, MemoryRequest, RequestFactory
from repro.sim.component import (
    CLASS_PREFIX,
    STALL_PREFIX,
    WAKE_NEVER,
    Component,
)
from repro.sim.config import GPUConfig

#: Outcomes of one issue attempt.
_ISSUED = 1
_NO_ISSUE = 0
_MEM_STALL = -1


class SM(Component):
    """One streaming multiprocessor plus its private L1D."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        warp_programs: list,
        mlp_limit: int,
        request_factory: RequestFactory,
    ) -> None:
        self.name = f"sm{sm_id}"
        self.sm_id = sm_id
        self._config = config
        self._factory = request_factory
        self.l1 = L1DCache(f"{self.name}.l1", config, sm_id)
        self.warps = [
            Warp(i, program, mlp_limit) for i, program in enumerate(warp_programs)
        ]
        self.scheduler = make_warp_scheduler(config.core.scheduler)
        limit = config.core.active_warp_limit
        active = self.warps if limit is None else self.warps[:limit]
        #: Warps waiting for an activation slot (TLP throttling).
        self._inactive_warps = deque(
            [] if limit is None else self.warps[limit:])
        for warp in active:
            self.scheduler.add(warp)
        self._ldst_queue: deque[MemoryRequest] = deque()
        self._ldst_capacity = config.core.ldst_queue_depth
        self._issue_width = config.core.issue_width
        self._mem_width = config.core.mem_pipeline_width
        # Pipe FIFO aliases for the completion-readiness test on the
        # per-cycle path (the pipes mutate their deques in place, so the
        # aliases stay valid); see step().
        self._hit_fifo = self.l1._hit_pipe._fifo
        self._fill_fifo = self.l1._fill_pipe._fifo
        #: Alias of the L1's pending-writeback list (mutated in place), one
        #: attribute hop instead of two on the per-cycle wake checks.
        self._l1_writebacks = self.l1._pending_writebacks
        #: The LRR ready deque (None for other policies): burst batching
        #: (see _burst_horizon) needs the exact issue rotation, which is
        #: only modelled for loose round robin.
        self._lrr_queue = (
            self.scheduler._queue
            if isinstance(self.scheduler, LRRScheduler)
            else None
        )
        #: rid -> LoadInstr for outstanding load transactions.
        self._txn_tracker: dict[int, LoadInstr] = {}
        self._retired = 0
        # --- statistics ---
        self.instructions = 0
        self.cycles = 0
        #: Cycles the memory pipeline was throttled by an L1 refusal.
        self.mem_pipeline_stall_cycles = 0
        self.stall_cycles_by_cause: dict[AccessResult, int] = {}
        #: Cycles that issued at least one instruction.
        self.issue_cycles = 0
        #: Cycles with at least one ready warp but no instruction issued
        #: (structural: LD/ST queue full).
        self.issue_starved_cycles = 0
        #: Cycles with no ready warp at all (everything blocked on memory).
        self.no_ready_warp_cycles = 0
        #: Cycles stepped after the SM quiesced (kernel drained here while
        #: other SMs still run).  Together with the three counters above
        #: this partitions ``cycles`` exactly — the conservation invariant
        #: behind the ``class.`` group of :meth:`counters`.
        self.drained_cycles = 0
        #: Fast-path flag: all warps retired and all queues drained.
        self._quiesced = False
        #: (request id, L1 resource epoch) of the last stalled transaction;
        #: retried only when the epoch advances.
        self._stalled_rid = -1
        self._stalled_epoch = -1
        self._stalled_cause = None
        #: True when the last issue pass proved futile: every ready warp
        #: holds a fetched memory instruction that cannot fit in the LD/ST
        #: queue, and nothing issued.  Until an L1 event frees queue space
        #: or wakes a warp, re-running issue is pointless — the SM may
        #: sleep despite having ready warps.
        self._issue_frozen = False
        #: Component-local burst window (see step()): cycles strictly
        #: before ``_skip_until`` are pure round-robin compute issue and
        #: are skipped, then replayed lazily; ``_skipped`` counts how many
        #: are pending replay.  Only armed in fast mode.
        self._fast_mode = False
        self._skip_until = 0
        self._skipped = 0
        #: Post-step horizon memo: True when the last step computed a zero
        #: burst horizon (a front warp must fetch next cycle), letting
        #: next_wake veto without rescanning the ready queue.
        self._fetch_due = False
        #: Fill-pipe length when the current window opened; a mismatch
        #: during a skipped cycle means an external fill arrived.
        self._fill_len = 0
        #: L1 miss-queue pops when a stalled-head window opened; a
        #: mismatch means the request network freed a slot.
        self._l1_missq = self.l1.miss_queue
        self._window_pops = 0
        #: All warps retired (their loads necessarily completed).  A plain
        #: attribute maintained by :meth:`_retire`; read every cycle by
        #: ``GPU.done``.
        self.done = self._retired == len(self.warps)

    # ------------------------------------------------------------------
    # component protocol
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        fill_fifo = self._fill_fifo
        hit_fifo = self._hit_fifo
        if now < self._skip_until and (
            not self._ldst_queue or self._l1_missq.pops == self._window_pops
        ):
            # Inside a local window: unless an external event cuts it
            # short, this cycle is deterministic — defer it for batched
            # replay.  Writebacks and the hit pipe only change in our own
            # steps and the window was clamped to their due times when it
            # opened, so two external sources remain: a fill arriving from
            # the response network (a fill-pipe length change), and, for a
            # stalled LD/ST head, the request network freeing a miss-queue
            # slot (a miss-queue pop, checked above; it forces a real step
            # that retries the head).
            if len(fill_fifo) == self._fill_len:
                self._skipped += 1
                return
            # New fill(s) landed mid-window: shrink the window to their
            # earliest ready time; only a fill due now forces a real step.
            self._fill_len = len(fill_fifo)
            head = fill_fifo[0][0]
            if head > now:
                if head < self._skip_until:
                    self._skip_until = head
                self._skipped += 1
                return
        if self._skipped:
            # Real step inside/after a window: materialize the deferred
            # cycles first, then close the window (a real step mutates the
            # ready pool, invalidating the horizon it was opened under).
            skipped = self._skipped
            self._skipped = 0
            self._replay(skipped)
        self._skip_until = 0
        self.cycles += 1
        if self._quiesced:
            self.drained_cycles += 1
            return
        if (
            self._l1_writebacks
            or (fill_fifo and fill_fifo[0][0] <= now)
            or (hit_fifo and hit_fifo[0][0] <= now)
        ):
            self._process_completions(now)
        if self._ldst_queue:
            self._drain_ldst(now)
        self._issue(now)
        self._fetch_due = False
        if self.done and not self._ldst_queue and self.l1.is_idle():
            self._quiesced = True
        elif self._fast_mode and not self._l1_writebacks:
            # Open the next local window: from the post-step state, the
            # next `window` cycles are deterministic regardless of what
            # the rest of the machine does (fill arrivals and miss-queue
            # pops are checked per skipped cycle above).  Three shapes
            # qualify: a pure compute burst (replayed as round-robin
            # issue), a fully blocked SM waiting on loads (replayed as
            # no-ready cycles), and an LD/ST head stalled on the current
            # L1 resource epoch while issue cannot proceed (replayed as
            # stall cycles plus no-ready or starved cycles).  The window
            # is clamped to the earliest event already sitting in the
            # completion pipes, so the skip-cycle guard only has to watch
            # for *new* fills.
            until = 0
            if self._ldst_queue:
                if (
                    self._ldst_queue[0].rid == self._stalled_rid
                    and self.l1.resource_epoch() == self._stalled_epoch
                    and (self._issue_frozen or not len(self.scheduler))
                ):
                    until = WAKE_NEVER
                    self._window_pops = self._l1_missq.pops
            elif len(self.scheduler):
                if self._lrr_queue is not None:
                    window = self._burst_horizon()
                    if window:
                        until = now + window + 1
                    else:
                        self._fetch_due = True
            elif not self.done:
                until = WAKE_NEVER
            if until:
                if fill_fifo:
                    head = fill_fifo[0][0]
                    if head < until:
                        until = head
                if hit_fifo and hit_fifo[0][0] < until:
                    until = hit_fifo[0][0]
                self._fill_len = len(fill_fifo)
                self._skip_until = until

    def set_fast_mode(self, enabled: bool) -> None:
        super().set_fast_mode(enabled)
        self._fast_mode = enabled

    def next_wake(self, now: int) -> int:
        if self._quiesced:
            return WAKE_NEVER
        burst_wake = WAKE_NEVER
        if len(self.scheduler):
            if not self._issue_frozen:
                if self._fetch_due:
                    return now  # a warp fetches (or starve-counts) this cycle
                until = self._skip_until
                if until > now:
                    # Local window open: its end IS the burst horizon
                    # (fast_forward flushes the deferred cycles before any
                    # global replay, so the two compose).
                    burst_wake = until
                elif self._skipped:
                    return now  # window just expired; flush in a real step
                else:
                    # Every ready warp mid compute burst: issue itself is
                    # deterministic for `window` cycles and replayable by
                    # fast_forward (still subject to the wake sources below).
                    window = self._burst_horizon()
                    if not window:
                        return now
                    burst_wake = now + window
        elif self.done and not self._ldst_queue and self.l1.is_idle():
            return now  # let a real step latch _quiesced
        l1 = self.l1
        if self._ldst_queue:
            head = self._ldst_queue[0]
            if head.rid != self._stalled_rid or (
                l1.fills_installed + l1.mshr.releases + l1.miss_queue.pops
            ) != self._stalled_epoch:
                return now  # fresh head, or a resource event cleared the stall
        if self._l1_writebacks:
            return now
        wake = burst_wake
        if self._fill_fifo and self._fill_fifo[0][0] < wake:
            wake = self._fill_fifo[0][0]
        if self._hit_fifo and self._hit_fifo[0][0] < wake:
            wake = self._hit_fifo[0][0]
        return wake if wake > now else now

    def fast_forward(self, cycles: int) -> None:
        # A global jump granted while a local window is open: the deferred
        # local cycles come first (they precede the jumped window), then
        # the jump itself — both replay on the live queue in order.
        if self._skipped:
            skipped = self._skipped
            self._skipped = 0
            self._skip_until = 0
            self._replay(skipped)
        self._replay(cycles)

    def _replay(self, cycles: int) -> None:
        # Replays exactly what the skipped steps would have counted: the
        # jump only happens with no ready warp (or a frozen issue stage),
        # with the LD/ST head (if any) stalled on an unchanged L1 resource
        # epoch, or through a compute-burst horizon.
        self.cycles += cycles
        if self._quiesced:
            self.drained_cycles += cycles
            return
        if self._ldst_queue:
            self.mem_pipeline_stall_cycles += cycles
            cause = self._stalled_cause
            self.stall_cycles_by_cause[cause] = (
                self.stall_cycles_by_cause.get(cause, 0) + cycles
            )
        if len(self.scheduler):
            if self._issue_frozen:
                # Frozen issue stage: ready warps exist but none can issue
                # (_issue would count a starved cycle, not no-ready).
                self.issue_starved_cycles += cycles
            else:
                # Jump granted through a compute-burst horizon: replay the
                # round-robin issue the skipped cycles would have done.
                # Every cycle inside the horizon issues >= 1 instruction.
                self.issue_cycles += cycles
                self._replay_burst(cycles)
        else:
            self.no_ready_warp_cycles += cycles

    def _burst_horizon(self) -> int:
        """Cycles over which issue is a pure, replayable compute burst.

        Non-zero only when every ready warp is mid compute burst
        (``remaining_compute > 0``) under the LRR scheduler: then each
        cycle issues ``min(issue_width, ready)`` compute instructions
        round-robin with no other state change, so the whole window can
        be replayed arithmetically by :meth:`_replay_burst`.  The window
        ends strictly before any warp would need to fetch.  Returns 0
        when the next cycle must step normally.  (Assumes the SM ticks on
        the core clock, as :class:`repro.gpu.GPU` registers it.)
        """
        queue = self._lrr_queue
        if queue is None:
            return 0
        width = self._issue_width
        k = len(queue)
        if k <= width:
            # Every ready warp issues once per cycle; the window ends when
            # the shortest burst empties (its next issue would fetch).
            best = WAKE_NEVER
            for warp in queue:
                remaining = warp.remaining_compute
                if remaining <= 0:
                    return 0
                if remaining < best:
                    best = remaining
            return best
        # width issues per cycle rotate through the k ready warps, so the
        # warp at queue position p receives global issue indices
        # p, p + k, p + 2k, ...; its first post-burst issue (the fetch)
        # lands at index p + remaining * k, i.e. cycle (p + r*k) // width.
        # A warp already at remaining == 0 just bounds the window to the
        # cycle of its next turn (p // width) — it issues nothing before.
        best = WAKE_NEVER
        p = 0
        for warp in queue:
            t = (p + warp.remaining_compute * k) // width
            if t < best:
                if not t:
                    return 0
                best = t
            p += 1
        return best

    def _replay_burst(self, cycles: int) -> None:
        """Apply ``cycles`` skipped cycles of round-robin compute issue.

        Exact counterpart of what :meth:`_issue`'s compute fast path would
        have done cycle by cycle (valid for any window within
        :meth:`_burst_horizon`): per-warp issue counts, instruction
        counters and the LRR rotation.
        """
        queue = self._lrr_queue
        width = self._issue_width
        k = len(queue)
        if k <= width:
            for warp in queue:
                warp.remaining_compute -= cycles
                warp.instructions += cycles
            self.instructions += k * cycles
            return
        issues = width * cycles
        base, extra = divmod(issues, k)
        p = 0
        for warp in queue:
            count = base + 1 if p < extra else base
            if count:
                warp.remaining_compute -= count
                warp.instructions += count
            p += 1
        self.instructions += issues
        if extra:
            queue.rotate(-extra)

    def _process_completions(self, now: int) -> None:
        for request in self.l1.collect_completions(now):
            request.retired = True  # the request's journey ends at its SM
            tracker = self._txn_tracker.pop(request.rid, None)
            if tracker is None:
                continue
            tracker.remaining -= 1
            if tracker.remaining:
                continue
            warp = self.warps[tracker.warp_id]
            warp.on_load_complete()
            if warp.state is WarpState.BLOCKED and not warp.should_block():
                if warp.can_retire():
                    self._retire(warp)
                elif warp.program_done and warp.pending_instr is None:
                    pass  # waiting for remaining loads before retiring
                else:
                    warp.state = WarpState.READY
                    self.scheduler.add(warp)
            elif warp.can_retire():
                self._retire(warp)

    def _drain_ldst(self, now: int) -> None:
        queue = self._ldst_queue
        if not queue:
            return
        head = queue[0]
        l1 = self.l1
        if head.rid == self._stalled_rid:
            # The head stalled before; retry only once an L1 resource event
            # (fill, MSHR release, miss-queue pop) could have unblocked it.
            # (Inlined l1.resource_epoch(): per-cycle path.)
            epoch = l1.fills_installed + l1.mshr.releases + l1.miss_queue.pops
            if epoch == self._stalled_epoch:
                self.mem_pipeline_stall_cycles += 1
                cause = self._stalled_cause
                self.stall_cycles_by_cause[cause] = (
                    self.stall_cycles_by_cause.get(cause, 0) + 1
                )
                return
            self._stalled_rid = -1
        sent = 0
        while queue and sent < self._mem_width:
            request = queue[0]
            result = l1.try_access(request, now)
            if result.is_stall:
                self.mem_pipeline_stall_cycles += 1
                self.stall_cycles_by_cause[result] = (
                    self.stall_cycles_by_cause.get(result, 0) + 1
                )
                self._stalled_rid = request.rid
                self._stalled_epoch = (
                    l1.fills_installed + l1.mshr.releases + l1.miss_queue.pops
                )
                self._stalled_cause = result
                break
            queue.popleft()
            sent += 1

    def _issue(self, now: int) -> None:
        issued = 0
        width = self._issue_width
        queue = self._lrr_queue
        if queue is not None:
            # LRR fast path: drain compute bursts straight off the ready
            # rotation without snapshotting it (``issued()`` for the head
            # warp is exactly a rotate).  Falls back to the general loop
            # for fetches, with the already-issued warps — now rotated to
            # the back — sliced off the snapshot so every warp is still
            # visited at most once per cycle.
            qlen = len(queue)
            if not qlen:
                self.no_ready_warp_cycles += 1
                return
            limit = width if width <= qlen else qlen
            while issued < limit:
                warp = queue[0]
                remaining = warp.remaining_compute
                if remaining <= 0:
                    break
                warp.remaining_compute = remaining - 1
                self.instructions += 1
                warp.instructions += 1
                issued += 1
                queue.rotate(-1)
            if issued >= limit:
                self._issue_frozen = False
                self.issue_cycles += 1
                return
            candidates = list(queue)
            if issued:
                del candidates[qlen - issued:]
        else:
            candidates = self.scheduler.candidates()
            if not candidates:
                self.no_ready_warp_cycles += 1
                return
        scheduler = self.scheduler
        mem_blocked = False
        churned = False
        for warp in candidates:
            if issued >= width:
                break
            remaining = warp.remaining_compute
            if remaining > 0:
                # Fast path for the common case (draining a compute burst);
                # equivalent to _issue_one's compute branch.
                warp.remaining_compute = remaining - 1
                self.instructions += 1
                warp.instructions += 1
                issued += 1
                scheduler.issued(warp)
                continue
            if mem_blocked:
                pending = warp.pending_instr
                if pending is not None and pending[0] != "compute":
                    # In-order LD/ST dispatch: once one memory instruction
                    # stalled for queue space this cycle, later memory
                    # instructions cannot bypass it.
                    continue
            result = self._issue_one(warp, now)
            if result == _ISSUED:
                issued += 1
                scheduler.issued(warp)
            elif result == _MEM_STALL:
                mem_blocked = True
            else:
                # _NO_ISSUE: the warp left the ready pool and a throttled
                # warp may have activated in its place — the pool changed,
                # so this cycle cannot prove the next one futile.
                churned = True
        if issued == 0:
            self.issue_starved_cycles += 1
            # A pass that stalled on LD/ST space, issued nothing and left
            # the ready pool untouched will repeat verbatim every cycle
            # until an L1 resource event; next_wake may sleep through it.
            self._issue_frozen = mem_blocked and not churned
        else:
            self._issue_frozen = False
            self.issue_cycles += 1

    def _issue_one(self, warp: Warp, now: int) -> int:
        """Issue one instruction from ``warp``.

        Returns ``_ISSUED``, ``_NO_ISSUE`` (program exhausted) or
        ``_MEM_STALL`` (LD/ST queue lacked space for the transactions).
        """
        if warp.remaining_compute > 0:
            warp.remaining_compute -= 1
            self._count_issue(warp)
            return _ISSUED
        instr = warp.fetch()
        if instr is None:
            self._maybe_retire_exhausted(warp)
            return _NO_ISSUE
        op = instr[0]
        if op == "compute":
            warp.consume_pending()
            warp.remaining_compute = max(0, instr[1] - 1)
            self._count_issue(warp)
            return _ISSUED
        if op == "membar":
            warp.consume_pending()
            self._count_issue(warp)
            if warp.outstanding_loads > 0:
                warp.at_membar = True
                self._block(warp)
            return _ISSUED
        # Memory instruction: needs LD/ST queue space for all transactions.
        lines = instr[1]
        if len(self._ldst_queue) + len(lines) > self._ldst_capacity:
            return _MEM_STALL
        warp.consume_pending()
        self._count_issue(warp)
        if op == "load":
            tracker = LoadInstr(warp_id=warp.warp_id, remaining=len(lines))
            warp.outstanding_loads += 1
            for line in lines:
                request = self._factory.make(
                    AccessKind.LOAD, line, self.sm_id, warp.warp_id, now
                )
                self._txn_tracker[request.rid] = tracker
                self._ldst_queue.append(request)
            if warp.should_block():
                self._block(warp)
        else:  # store
            for line in lines:
                request = self._factory.make(
                    AccessKind.STORE, line, self.sm_id, warp.warp_id, now
                )
                self._ldst_queue.append(request)
        return _ISSUED

    # ------------------------------------------------------------------
    # warp lifecycle helpers
    # ------------------------------------------------------------------
    def _count_issue(self, warp: Warp) -> None:
        self.instructions += 1
        warp.instructions += 1

    def _block(self, warp: Warp) -> None:
        warp.state = WarpState.BLOCKED
        self.scheduler.remove(warp)

    def _maybe_retire_exhausted(self, warp: Warp) -> None:
        if warp.can_retire():
            self._retire(warp)
        else:
            # Program done but loads outstanding: leave the ready pool and
            # retire from _process_completions when the last load returns.
            warp.state = WarpState.BLOCKED
            self.scheduler.remove(warp)

    def _retire(self, warp: Warp) -> None:
        if warp.state is not WarpState.RETIRED:
            warp.state = WarpState.RETIRED
            self.scheduler.remove(warp)
            self._retired += 1
            if self._inactive_warps:
                self.scheduler.add(self._inactive_warps.popleft())
            elif self._retired == len(self.warps):
                self.done = True

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return self.done and not self._ldst_queue and self.l1.is_idle()

    def finalize(self, now: int) -> None:
        if self._skipped:
            # A run truncated mid-window: materialize the deferred cycles
            # so counters match the naive loop at the cut-off.
            skipped = self._skipped
            self._skipped = 0
            self._skip_until = 0
            self._replay(skipped)
        self.l1.finalize(now)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def queues(self):
        return (("l1_missq", self.l1.miss_queue),)

    def mshrs(self):
        return (("l1_mshr", self.l1.mshr),)

    def inflight(self):
        yield from self._ldst_queue
        yield from self.l1.inflight_requests()

    def counters(self):
        yield "instructions", self.instructions
        yield "mem_pipeline_stall_cycles", self.mem_pipeline_stall_cycles
        yield "l1_misses_issued", self.l1.misses_issued
        for cause, cycles in self.stall_cycles_by_cause.items():
            yield STALL_PREFIX + cause.value, cycles
        yield CLASS_PREFIX + "cycles", self.cycles
        yield CLASS_PREFIX + "issue", self.issue_cycles
        yield CLASS_PREFIX + "issue_starved", self.issue_starved_cycles
        yield CLASS_PREFIX + "no_ready_warp", self.no_ready_warp_cycles
        yield CLASS_PREFIX + "drained", self.drained_cycles

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0
