"""Negative tests: the sanitizer must catch deliberately injected violations.

Each test builds the smallest structure that violates one invariant —
a dropped request, a duplicated request, a leaked MSHR entry, a wedged
queue — and asserts the sanitizer raises :class:`SanitizerError` naming
the right invariant.  The invariant predicates themselves are also
exercised directly against hand-built structures.
"""

import pytest

from repro.analysis import Sanitizer
from repro.analysis.invariants import (
    mshr_violations,
    queue_bound_violations,
    timestamp_violations,
)
from repro.cache.mshr import MSHRTable
from repro.errors import ReproError, SanitizerError
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, RequestFactory
from repro.sim.component import Component
from repro.sim.engine import Simulator


class Harness(Component):
    """A component exposing whatever containers a test hands it."""

    name = "harness"

    def __init__(self, queues=(), mshrs=(), inflight=()):
        self.held_queues = list(queues)
        self.held_mshrs = list(mshrs)
        self.held_inflight = list(inflight)

    def step(self, now):
        pass

    def queues(self):
        return [("harness_q", queue) for queue in self.held_queues]

    def mshrs(self):
        return [("harness_mshr", table) for table in self.held_mshrs]

    def inflight(self):
        return self.held_inflight


def make_rig(**containers):
    """A real Simulator holding one Harness, with a sanitizer attached."""
    sim = Simulator()
    harness = sim.add(Harness(**containers))
    factory = RequestFactory()
    sanitizer = Sanitizer(sim, factory, interval=1)
    sim.attach_observer(sanitizer)
    return sim, harness, factory, sanitizer


def make_request(factory, line=0x10, kind=AccessKind.LOAD):
    return factory.make(kind, line, sm_id=0, warp_id=0, now=0)


class TestRequestConservation:
    def test_dropped_request_detected(self):
        """A created request found in no container was silently dropped."""
        sim, harness, factory, _ = make_rig()
        make_request(factory)  # never placed anywhere
        with pytest.raises(SanitizerError, match="silently dropped"):
            sim.step()

    def test_request_in_queue_is_conserved(self):
        queue = StatQueue("q", capacity=4)
        sim, harness, factory, _ = make_rig(queues=[queue])
        queue.push(make_request(factory), now=0)
        sim.step()  # no raise: the request is accounted for

    def test_request_in_mshr_is_conserved(self):
        mshr = MSHRTable("m", entries=4, max_merge=4)
        sim, harness, factory, _ = make_rig(mshrs=[mshr])
        mshr.allocate(make_request(factory), now=0)
        sim.step()

    def test_retired_request_may_leave(self):
        sim, harness, factory, sanitizer = make_rig()
        request = make_request(factory)
        request.retired = True
        sim.step()
        assert sanitizer.in_flight == 0
        assert sanitizer.stats()["requests_retired"] == 1

    def test_duplicated_request_detected(self):
        """One request in two transit containers at once."""
        q1, q2 = StatQueue("q1", 4), StatQueue("q2", 4)
        sim, harness, factory, _ = make_rig(queues=[q1, q2])
        request = make_request(factory)
        q1.push(request, now=0)
        q2.push(request, now=0)
        with pytest.raises(SanitizerError, match="duplicated across transit"):
            sim.step()

    def test_retired_request_still_in_transit_detected(self):
        queue = StatQueue("q", 4)
        sim, harness, factory, _ = make_rig(queues=[queue])
        request = make_request(factory)
        queue.push(request, now=0)
        request.retired = True
        with pytest.raises(SanitizerError, match="already retired"):
            sim.step()

    def test_mshr_residence_plus_transit_is_legal(self):
        """An MSHR leader travelling downstream is not a duplicate."""
        queue = StatQueue("q", 4)
        mshr = MSHRTable("m", entries=4, max_merge=4)
        sim, harness, factory, _ = make_rig(queues=[queue], mshrs=[mshr])
        request = make_request(factory)
        mshr.allocate(request, now=0)
        queue.push(request, now=0)
        sim.step()  # no raise

    def test_rid_reuse_detected(self):
        _, _, factory, sanitizer = make_rig()
        request = make_request(factory)
        with pytest.raises(SanitizerError, match="allocated twice"):
            sanitizer.on_create(request)

    def test_unretired_request_at_finalize_detected(self):
        sim, harness, factory, _ = make_rig()
        queue = StatQueue("q", 4)
        harness.held_queues.append(queue)
        queue.push(make_request(factory), now=0)
        with pytest.raises(SanitizerError, match="never retired"):
            sim.finalize()


class TestMSHRLeak:
    def test_leaked_entry_detected(self):
        """All merged requests retired but the entry was never released."""
        mshr = MSHRTable("m", entries=4, max_merge=4)
        sim, harness, factory, _ = make_rig(mshrs=[mshr])
        request = make_request(factory)
        mshr.allocate(request, now=0)
        request.retired = True
        with pytest.raises(SanitizerError, match="leaked entry"):
            sim.step()

    def test_live_entry_is_not_a_leak(self):
        mshr = MSHRTable("m", entries=4, max_merge=4)
        request = make_request(RequestFactory())
        mshr.allocate(request, now=0)
        assert mshr_violations(mshr) == []


class TestDeadlockDetection:
    def test_wedged_queue_detected(self):
        queue = StatQueue("q", 4)
        sim = Simulator()
        sim.add(Harness(queues=[queue]))
        factory = RequestFactory()
        sanitizer = Sanitizer(sim, factory, interval=1, deadlock_cycles=10)
        sim.attach_observer(sanitizer)
        queue.push(make_request(factory), now=0)
        with pytest.raises(SanitizerError, match="no forward progress"):
            for _ in range(20):
                sim.step()

    def test_progress_resets_the_clock(self):
        queue = StatQueue("q", 4)
        sim = Simulator()
        sim.add(Harness(queues=[queue]))
        factory = RequestFactory()
        sanitizer = Sanitizer(sim, factory, interval=1, deadlock_cycles=10)
        sim.attach_observer(sanitizer)
        queue.push(make_request(factory), now=0)
        for step in range(30):
            # A pop+push every 5 cycles is observable progress.
            if step % 5 == 0:
                queue.push(queue.pop(now=step), now=step)
            sim.step()

    def test_idle_system_never_deadlocks(self):
        sim = Simulator()
        sim.add(Harness())
        sanitizer = Sanitizer(sim, RequestFactory(), interval=1,
                              deadlock_cycles=2)
        sim.attach_observer(sanitizer)
        for _ in range(50):
            sim.step()


class TestConfigurationAndInterval:
    def test_bad_interval_rejected(self):
        with pytest.raises(SanitizerError):
            Sanitizer(Simulator(), interval=0)

    def test_bad_deadlock_cycles_rejected(self):
        with pytest.raises(SanitizerError):
            Sanitizer(Simulator(), deadlock_cycles=0)

    def test_interval_skips_intermediate_cycles(self):
        sim = Simulator()
        sim.add(Harness())
        sanitizer = Sanitizer(sim, interval=8)
        sim.attach_observer(sanitizer)
        for _ in range(16):
            sim.step()
        assert sanitizer.checks_run == 2

    def test_violation_is_a_repro_error(self):
        sim, harness, factory, _ = make_rig()
        make_request(factory)
        with pytest.raises(ReproError):
            sim.step()


class TestInvariantPredicates:
    def test_queue_over_capacity(self):
        queue = StatQueue("q", 2)
        for i in range(2):
            queue.push(object(), now=0)
        queue._items.append(object())  # bypass the guard
        problems = queue_bound_violations([queue])
        assert any("over its capacity" in p for p in problems)

    def test_queue_accounting_mismatch(self):
        queue = StatQueue("q", 4)
        queue.push(object(), now=0)
        queue.pushes += 1  # tamper with the counter
        problems = queue_bound_violations([queue])
        assert any("accounting broken" in p for p in problems)

    def test_clean_queue_passes(self):
        queue = StatQueue("q", 4)
        queue.push(object(), now=0)
        queue.pop(now=1)
        assert queue_bound_violations([queue]) == []

    def test_future_timestamp(self):
        request = make_request(RequestFactory())
        request.timestamps["l1_miss"] = 100
        problems = timestamp_violations(request, now=50)
        assert any("outside [0, 50]" in p for p in problems)

    def test_decreasing_timestamps(self):
        request = make_request(RequestFactory())
        request.timestamps["l1_miss"] = 40
        request.timestamps["l2_in"] = 30
        problems = timestamp_violations(request, now=100)
        assert any("precedes earlier hop" in p for p in problems)

    def test_monotone_timestamps_pass(self):
        request = make_request(RequestFactory())
        request.timestamps["l1_miss"] = 10
        request.timestamps["l2_in"] = 12
        request.timestamps["l2_out"] = 12
        assert timestamp_violations(request, now=100) == []

    def test_mshr_accounting_mismatch(self):
        mshr = MSHRTable("m", entries=4, max_merge=4)
        mshr.allocate(make_request(RequestFactory()), now=0)
        mshr.allocations += 1  # tamper
        problems = mshr_violations(mshr)
        assert any("accounting broken" in p for p in problems)

    def test_mshr_entry_without_requests(self):
        mshr = MSHRTable("m", entries=4, max_merge=4)
        mshr.allocate(make_request(RequestFactory()), now=0)
        next(iter(mshr.entries())).requests.clear()
        problems = mshr_violations(mshr)
        assert any("has no requests" in p for p in problems)

    def test_mshr_merge_bound(self):
        mshr = MSHRTable("m", entries=4, max_merge=1)
        factory = RequestFactory()
        mshr.allocate(make_request(factory), now=0)
        next(iter(mshr.entries())).requests.append(make_request(factory))
        problems = mshr_violations(mshr)
        assert any("over max_merge" in p for p in problems)

    def test_mshr_line_mismatch(self):
        mshr = MSHRTable("m", entries=4, max_merge=4)
        factory = RequestFactory()
        mshr.allocate(make_request(factory, line=0x10), now=0)
        stray = make_request(factory, line=0x99)
        next(iter(mshr.entries())).requests.append(stray)
        problems = mshr_violations(mshr)
        assert any("filed under entry" in p for p in problems)
