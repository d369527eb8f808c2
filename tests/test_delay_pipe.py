"""Unit and property tests for DelayPipe."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.mem.pipe import DelayPipe


class TestDelayPipe:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            DelayPipe("p", -1)

    def test_item_not_ready_before_latency(self):
        pipe = DelayPipe("p", 5)
        pipe.insert("a", now=10)
        assert not pipe.ready(14)
        assert pipe.ready(15)

    def test_zero_latency_ready_same_cycle(self):
        pipe = DelayPipe("p", 0)
        pipe.insert("a", now=3)
        assert pipe.ready(3)

    def test_extra_delay(self):
        pipe = DelayPipe("p", 2)
        pipe.insert("a", now=0, extra_delay=7)
        assert not pipe.ready(8)
        assert pipe.ready(9)

    def test_insert_at_absolute(self):
        pipe = DelayPipe("p", 100)
        pipe.insert_at("a", ready_cycle=12)
        assert pipe.ready(12)

    def test_fifo_among_same_cycle(self):
        pipe = DelayPipe("p", 1)
        pipe.insert("first", now=0)
        pipe.insert("second", now=0)
        assert pipe.drain_ready(1) == ["first", "second"]

    def test_drain_only_ready(self):
        pipe = DelayPipe("p", 0)
        pipe.insert_at("early", 5)
        pipe.insert_at("late", 9)
        assert pipe.drain_ready(5) == ["early"]
        assert len(pipe) == 1

    def test_peek_and_pop(self):
        pipe = DelayPipe("p", 0)
        pipe.insert("x", now=0)
        assert pipe.peek() == "x"
        assert pipe.pop() == "x"
        assert pipe.empty


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 50), st.integers(0, 30)),
        max_size=60,
    )
)
def test_items_emerge_in_ready_order(inserts):
    """Drained over time, items emerge in ``(ready, insertion)`` order — a
    stable sort by ready cycle — whether they entered by ``insert`` or by
    an out-of-order ``insert_at`` (the ring's arrivals rely on the ties)."""
    pipe = DelayPipe("p", 3)
    expected = []
    for i, (absolute, now, extra) in enumerate(inserts):
        if absolute:
            ready = now + extra
            pipe.insert_at(i, ready)
        else:
            ready = now + 3 + extra
            pipe.insert(i, now=now, extra_delay=extra)
        expected.append((ready, i))
    out = []
    horizon = max(expected, default=(0, 0))[0] + 1
    for cycle in range(horizon + 1):
        for i in pipe.drain_ready(cycle):
            ready = expected[i][0]
            assert ready <= cycle
            out.append((ready, i))
    assert len(out) == len(inserts)
    assert out == sorted(expected)
