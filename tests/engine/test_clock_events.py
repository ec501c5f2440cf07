"""Event-loop tests."""

import pytest

from repro.engine.events import EventLoop
from repro.errors import SimulationError


# ----------------------------------------------------------------------
# EventLoop
# ----------------------------------------------------------------------
def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(3.0, lambda _l: order.append("c"))
    loop.schedule(1.0, lambda _l: order.append("a"))
    loop.schedule(2.0, lambda _l: order.append("b"))
    end = loop.run()
    assert order == ["a", "b", "c"]
    assert end == 3.0
    assert loop.processed == 3


def test_ties_break_by_schedule_order():
    loop = EventLoop()
    order = []
    loop.schedule(1.0, lambda _l: order.append("first"))
    loop.schedule(1.0, lambda _l: order.append("second"))
    loop.run()
    assert order == ["first", "second"]


def test_callbacks_can_schedule_more_events():
    loop = EventLoop()
    hits = []

    def chain(l: EventLoop) -> None:
        hits.append(l.now)
        if len(hits) < 4:
            l.schedule(1.0, chain)

    loop.schedule(0.5, chain)
    loop.run()
    assert hits == [0.5, 1.5, 2.5, 3.5]


def test_cancel_event():
    loop = EventLoop()
    hits = []
    event = loop.schedule(1.0, lambda _l: hits.append(1))
    loop.cancel(event)
    loop.run()
    assert hits == []


def test_run_until_leaves_future_events_queued():
    loop = EventLoop()
    hits = []
    loop.schedule(1.0, lambda _l: hits.append(1))
    loop.schedule(5.0, lambda _l: hits.append(5))
    loop.run(until=2.0)
    assert hits == [1]
    assert loop.now == 2.0
    loop.run()
    assert hits == [1, 5]


def test_schedule_validation():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda _l: None)
    loop.schedule(1.0, lambda _l: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(0.5, lambda _l: None)


def test_event_budget_guard():
    loop = EventLoop()

    def forever(l: EventLoop) -> None:
        l.schedule(0.1, forever)

    loop.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="budget"):
        loop.run(max_events=100)
