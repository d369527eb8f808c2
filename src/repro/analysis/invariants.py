"""Pure invariant predicates over simulator bookkeeping structures.

Each function inspects one kind of structure and returns a list of
human-readable problem descriptions (empty when the invariant holds).  The
:class:`~repro.analysis.sanitizer.Sanitizer` aggregates these into a
:class:`~repro.errors.SanitizerError`; keeping the predicates free of
engine state makes them directly unit-testable against hand-built
structures.

Checked contracts
-----------------
* **Queue bounds** — a :class:`~repro.mem.queue.StatQueue` never exceeds
  its capacity, and its push/pop counters account exactly for its current
  occupancy (``pushes - pops == len``).
* **Timestamp monotonicity** — the per-hop timestamps a request collects
  are non-decreasing in stamp order and never lie in the future.  A
  decreasing pair means two components disagreed about time; a future
  stamp means a component stamped with the wrong cycle argument.
* **MSHR integrity** — a table holds at most ``capacity`` entries, its
  allocation/release counters account for the live entry count, every
  entry carries between 1 and ``max_merge`` requests all targeting the
  entry's line, and no entry outlives its requests (an entry whose
  requests have all retired is a *leak*: the fill that should have
  released it was lost).
* **Cycle-accounting conservation** — a component exposing
  ``class.`` counters partitions its stepped cycles exhaustively:
  the class counts sum exactly to its total cycles, the invariant the
  attribution view of :mod:`repro.telemetry.timeseries` is built on.
"""

from __future__ import annotations

from typing import Any

from repro.sim.component import CLASS_PREFIX


def queue_bound_violations(queues: Any) -> list[str]:
    """Capacity and conservation-of-occupancy checks for bounded queues."""
    problems: list[str] = []
    for queue in queues:
        occupancy = len(queue)
        if occupancy > queue.capacity:
            problems.append(
                f"queue {queue.name!r} holds {occupancy} items, over its "
                f"capacity of {queue.capacity}"
            )
        if queue.pushes - queue.pops != occupancy:
            problems.append(
                f"queue {queue.name!r} accounting broken: "
                f"{queue.pushes} pushes - {queue.pops} pops != "
                f"{occupancy} resident items"
            )
    return problems


def timestamp_violations(request: Any, now: int) -> list[str]:
    """Per-hop timestamp sanity for one request.

    Timestamps are stored in stamp order (dict insertion order); a request
    only moves forward in time, so the sequence must be non-decreasing and
    bounded by the current cycle.
    """
    problems: list[str] = []
    prev_hop: str | None = None
    prev_time: int | None = None
    for hop, stamped in request.timestamps.items():
        if stamped < 0 or stamped > now:
            problems.append(
                f"request #{request.rid}: hop {hop!r} stamped at cycle "
                f"{stamped}, outside [0, {now}]"
            )
        if prev_time is not None and stamped < prev_time:
            problems.append(
                f"request #{request.rid}: hop {hop!r} at cycle {stamped} "
                f"precedes earlier hop {prev_hop!r} at cycle {prev_time}"
            )
        prev_hop, prev_time = hop, stamped
    return problems


def mshr_violations(table: Any) -> list[str]:
    """Structural and leak checks for one MSHR table."""
    problems: list[str] = []
    live = len(table)
    if live > table.capacity:
        problems.append(
            f"MSHR {table.name!r} holds {live} entries, over its capacity "
            f"of {table.capacity}"
        )
    if table.allocations - table.releases != live:
        problems.append(
            f"MSHR {table.name!r} accounting broken: {table.allocations} "
            f"allocations - {table.releases} releases != {live} live entries"
        )
    for entry in table.entries():
        if not entry.requests:
            problems.append(
                f"MSHR {table.name!r}: entry for line {entry.line:#x} has "
                "no requests"
            )
            continue
        if len(entry.requests) > table.max_merge:
            problems.append(
                f"MSHR {table.name!r}: entry for line {entry.line:#x} "
                f"holds {len(entry.requests)} requests, over max_merge "
                f"{table.max_merge}"
            )
        for request in entry.requests:
            if request.line != entry.line:
                problems.append(
                    f"MSHR {table.name!r}: request #{request.rid} for line "
                    f"{request.line:#x} filed under entry {entry.line:#x}"
                )
        if all(request.retired for request in entry.requests):
            problems.append(
                f"MSHR {table.name!r}: leaked entry for line "
                f"{entry.line:#x} (all {len(entry.requests)} merged "
                "requests already retired, entry never released)"
            )
    return problems


def cycle_accounting_violations(component: Any) -> list[str]:
    """Exact conservation of the cycle-accounting partition.

    A component whose ``counters()`` carry a ``class.`` group promises
    that its accounting classes partition its total cycles: every stepped
    cycle lands in exactly one class, so the class counts sum to
    ``class.cycles`` at every cycle boundary.  A shortfall means a cycle
    escaped classification; an excess means a cycle was double-counted —
    either way the attribution built on top of the partition would
    silently lie.
    """
    size = len(CLASS_PREFIX)
    classes = {
        name[size:]: count for name, count in component.counters()
        if name.startswith(CLASS_PREFIX)
    }
    if not classes:
        return []
    problems: list[str] = []
    total = classes.pop("cycles", None)
    if total is None:
        problems.append(
            f"{component.name}: counters() carry cycle classes without "
            "the mandatory 'class.cycles' total"
        )
        return problems
    if any(count < 0 for count in classes.values()):
        problems.append(
            f"{component.name}: negative cycle-class count in {classes}"
        )
    accounted = sum(classes.values())
    if accounted != total:
        problems.append(
            f"{component.name}: cycle accounting broken: classes sum to "
            f"{accounted} but {total} cycles elapsed ({classes})"
        )
    return problems
