"""Per-layer host-time tracing, applied from outside the package.

:class:`Tracer` wraps callables at each simulator layer boundary with a
span that records its duration and subtracts the spans of its children,
so every layer gets a *self* time.  Nothing in ``src/`` changes: the
wrappers are installed on instances and module globals for the duration
of :meth:`Tracer.installed` and removed afterwards.

Why instance wrapping works: ``Simulator._build_dispatch`` reads
``component.step`` / ``component.next_wake`` lazily on the first engine
step (the tracer wraps the wake list it builds), and the engine, SMs and
crossbars look up ``fast_forward``, ``l1.try_access``,
``l1.collect_completions`` and ``l1.deliver_fill`` through the instance
on every call.  The ``GPU`` objects built inside
``run_kernel`` are reached by substituting the ``GPU`` name that
``repro.core.metrics`` resolves.

Spans nest: L1 calls run inside ``SM.step`` and inside the response
crossbar's step, so both of those layers report time net of L1.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: L1 entry points the SM and the response crossbar call.  The engine's
#: ``is_idle`` drain checks stay unwrapped and land in its self time.
_L1_CALLS = ("try_access", "collect_completions", "deliver_fill")


class _Table:
    """One thread's span stack and accumulators (merged at read time)."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Accumulates per-layer self time, call counts and side counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[_Table] = []

    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _Table()
            self._tables.append(table)  # list.append is atomic
        return table

    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        after: Callable[[_Table, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer``; ``after`` sees the result."""
        clock = time.perf_counter_ns
        table_of = self._table

        def traced(*args: Any, **kwargs: Any) -> Any:
            table = table_of()
            stack = table.stack
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                table.self_ns[layer] += elapsed - stack.pop()
                table.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(table, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def add(self, name: str, value: float) -> None:
        """Accumulate a counter that is not a span (e.g. a queue wait)."""
        self._table().counts[name] += value

    # ------------------------------------------------------------------
    def merged(self, field: str) -> dict[str, float]:
        """One accumulator (``self_ns``, ``calls`` or ``counts``) summed
        over every thread's table; an absent key reads as 0."""
        out: dict[str, float] = defaultdict(float)
        for table in self._tables:
            for key, value in getattr(table, field).items():
                out[key] += value
        return out

    # ------------------------------------------------------------------
    def instrument_gpu(self, gpu: Any) -> None:
        """Wrap every component of a freshly built GPU, before it runs."""
        wrap = self.wrap
        components: list[tuple[Any, str]] = [(sm, "cores.sm") for sm in gpu.sms]
        for xbar in (gpu.request_xbar, gpu.response_xbar):
            if xbar is not None:
                components.append((xbar, "icnt"))
        components += [(l2, "cache.l2") for l2 in gpu.l2_slices]
        components += [(dram, "dram") for dram in gpu.dram_channels]
        for component, layer in components:
            component.step = wrap(layer, component.step)
            component.fast_forward = wrap("sim.fast_forward", component.fast_forward)
        for sm in gpu.sms:
            for method in _L1_CALLS:
                setattr(sm.l1, method, wrap("cache.l1", getattr(sm.l1, method)))
        sim = gpu.sim
        build_dispatch = sim._build_dispatch

        def build_traced_dispatch() -> None:
            # Wrap the engine's wake probes, not ``next_wake`` itself: an
            # L2 slice also calls its own ``next_wake`` inside ``step``,
            # and that is L2 work.
            build_dispatch()
            sim._wake_fns = [wrap("sim.wake", fn) for fn in sim._wake_fns]

        sim._build_dispatch = build_traced_dispatch

        def after_run(table: _Table, _result: Any) -> None:
            table.counts["sim.cycles"] += sim.cycle
            table.counts["sim.cycles_fast_forwarded"] += sim.cycles_fast_forwarded

        sim.run = wrap("sim.engine", sim.run, after_run)

    @contextmanager
    def installed(self, daemon: Any = None) -> Iterator["Tracer"]:
        """Install every wrapper; restore the package on exit.

        ``daemon`` (an in-process ``ReproDaemon``) additionally gets its
        client verbs and worker body wrapped.
        """
        import repro.core.metrics as metrics_mod
        import repro.service.daemon as daemon_mod
        from repro.runner.cache import ResultCache
        from repro.runner.job import Job
        from repro.runner.pool import BatchRunner

        real_gpu = metrics_mod.GPU
        timed_build = self.wrap("gpu.build", real_gpu)

        def build_gpu(*args: Any, **kwargs: Any) -> Any:
            gpu = timed_build(*args, **kwargs)
            self.instrument_gpu(gpu)
            return gpu

        def after_get(table: _Table, result: Any) -> None:
            if result is not None:
                table.counts["runner.store_hits"] += 1

        patches: list[tuple[Any, str, Any]] = [
            (metrics_mod, "GPU", build_gpu),
            (metrics_mod, "collect_metrics",
             self.wrap("core.collect_metrics", metrics_mod.collect_metrics)),
            (daemon_mod, "runs_to_text",
             self.wrap("core.export", daemon_mod.runs_to_text)),
            (Job, "key", self.wrap("runner.job_key", Job.key)),
            (Job, "execute", self.wrap("runner.execute", Job.execute)),
            (ResultCache, "get", self.wrap("runner.store_get", ResultCache.get, after_get)),
            (ResultCache, "put", self.wrap("runner.store_put", ResultCache.put)),
            (BatchRunner, "run", self.wrap("runner.batch", BatchRunner.run)),
        ]
        if daemon is not None:
            for verb in ("submit", "status", "results"):
                patches.append((daemon, verb, self.wrap(f"service.{verb}", getattr(daemon, verb))))
            execute = self.wrap("service.execute", daemon._execute)

            def execute_after_wait(submission: Any) -> None:
                self.add("service.queue_wait_s", time.time() - submission.created)
                execute(submission)

            patches.append((daemon, "_execute", execute_after_wait))
        saved = [(obj, name, obj.__dict__.get(name)) for obj, name, _ in patches]
        for obj, name, value in patches:
            setattr(obj, name, value)
        try:
            yield self
        finally:
            for obj, name, original in saved:
                if original is None:
                    delattr(obj, name)  # instance attribute shadowing a method
                else:
                    setattr(obj, name, original)
