"""Unit and property tests for the instrumented finite queue."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest


class TestStatQueueBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            StatQueue("q", 0)

    def test_fifo_order(self):
        q = StatQueue("q", 4)
        for i in range(3):
            assert q.push(i, now=i)
        assert [q.pop(now=10) for _ in range(3)] == [0, 1, 2]

    def test_push_refused_when_full_and_counted(self):
        q = StatQueue("q", 2)
        assert q.push("a", 0) and q.push("b", 0)
        assert not q.push("c", 0)
        assert q.rejections == 1
        assert q.pushes == 2

    def test_pop_empty_raises(self):
        q = StatQueue("q", 1)
        with pytest.raises(SimulationError):
            q.pop(0)

    def test_peek_does_not_remove(self):
        q = StatQueue("q", 2)
        q.push("a", 0)
        assert q.peek() == "a"
        assert len(q) == 1

    def test_remove_from_middle(self):
        q = StatQueue("q", 4)
        for x in "abc":
            q.push(x, 0)
        q.remove("b", 1)
        assert list(q) == ["a", "c"]
        assert q.pops == 1

    def test_remove_takes_the_request_not_an_equal_twin(self):
        first, twin = (
            MemoryRequest(rid=7, kind=AccessKind.LOAD, line=3, sm_id=0, warp_id=0)
            for _ in range(2)
        )
        q = StatQueue("q", 4)
        q.push(first, 0)
        q.push(twin, 0)
        q.remove(twin, 1)
        assert len(q) == 1
        assert q.peek() is first

    def test_remove_absent_raises(self):
        q = StatQueue("q", 4)
        q.push("a", 0)
        with pytest.raises(SimulationError):
            q.remove("z", 1)


class TestStatQueueInstrumentation:
    def test_full_fraction_simple(self):
        q = StatQueue("q", 1)
        q.push("a", 10)  # becomes busy AND full at 10
        q.pop(20)  # empty at 20
        q.finalize(30)
        assert q.busy_cycles() == 10
        assert q.full_cycles() == 10
        assert q.full_fraction() == pytest.approx(1.0)

    def test_partial_full_fraction(self):
        q = StatQueue("q", 2)
        q.push("a", 0)      # busy from 0
        q.push("b", 6)      # full from 6
        q.pop(10)           # not full from 10
        q.pop(16)           # empty at 16
        q.finalize(16)
        assert q.busy_cycles() == 16
        assert q.full_cycles() == 4
        assert q.full_fraction() == pytest.approx(0.25)

    def test_never_used_queue_reports_zero(self):
        q = StatQueue("q", 2)
        q.finalize(100)
        assert q.full_fraction() == 0.0
        assert q.busy_cycles() == 0

    def test_never_full_queue_full_tracker_untouched(self):
        """Lock-in: a queue that never reaches capacity must report zero
        full time — pop/remove must not open (or close) a phantom full
        interval via a redundant falling edge."""
        q = StatQueue("q", 4)
        q.push("a", 0)
        q.push("b", 1)
        q.pop(5)
        q.push("c", 7)
        q.remove("b", 9)
        q.pop(12)
        assert not q._full_time.active
        assert q._full_time.total(now=12) == 0
        q.finalize(20)
        assert q.full_cycles() == 0
        assert q.full_fraction() == 0.0

    def test_full_interval_closes_on_first_pop_only(self):
        """The falling edge fires exactly when the queue leaves the full
        state; the subsequent pop (already non-full) changes nothing."""
        q = StatQueue("q", 2)
        q.push("a", 0)
        q.push("b", 3)   # full from 3
        q.pop(10)        # leaves full at 10
        assert not q._full_time.active
        q.pop(15)        # redundant: already non-full
        q.finalize(15)
        assert q.full_cycles() == 7

    def test_mean_occupancy_at_push(self):
        q = StatQueue("q", 8)
        q.push("a", 0)  # occupancy 1 after push
        q.push("b", 0)  # occupancy 2
        assert q.mean_occupancy_at_push == pytest.approx(1.5)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["push", "pop"]), st.integers(0, 5)),
        max_size=200,
    )
)
def test_queue_invariants_under_random_ops(ops):
    """Occupancy stays within [0, capacity]; counters are consistent."""
    q = StatQueue("q", 3)
    now = 0
    live = 0
    for op, gap in ops:
        now += gap
        if op == "push":
            if q.push(object(), now):
                live += 1
        elif len(q):
            q.pop(now)
            live -= 1
        assert 0 <= len(q) <= 3
        assert len(q) == live
    q.finalize(now)
    assert q.pushes == q.pops + len(q)
    assert q.full_cycles() <= q.busy_cycles()
    assert 0.0 <= q.full_fraction() <= 1.0
