"""Event engine contract: ordering, ties, clock discipline."""

from __future__ import annotations

import pytest

from ubrsim.engine import (
    APP_SEND,
    CELL_ARRIVAL,
    EventQueue,
    InvariantError,
)


def _collector(log, tag):
    return lambda payload: log.append((tag, payload))


def test_dispatch_orders_by_time():
    eng = EventQueue()
    log = []
    eng.schedule(100, APP_SEND, _collector(log, "late"))
    eng.schedule(50, APP_SEND, _collector(log, "early"))
    eng.run_until(200)
    assert [tag for tag, _ in log] == ["early", "late"]


def test_equal_times_dispatch_in_insertion_order():
    eng = EventQueue()
    log = []
    for i in range(20):
        eng.schedule(70, APP_SEND, _collector(log, i))
    eng.run_until(70)
    assert [tag for tag, _ in log] == list(range(20))


def test_scheduling_in_the_past_fails_loudly():
    eng = EventQueue()
    eng.schedule(10, APP_SEND, lambda _: None)
    eng.run_until(50)
    with pytest.raises(InvariantError, match="behind the clock"):
        eng.schedule(49, APP_SEND, lambda _: None)


def test_empty_queue_advances_clock_with_zero_dispatches():
    eng = EventQueue()
    assert eng.run_until(1_000_000_000) == 0
    assert eng.now == 1_000_000_000


def test_run_until_boundary_is_inclusive():
    eng = EventQueue()
    fired = []
    for t in (1, 2, 3):
        eng.schedule(t, APP_SEND, fired.append, t)
    assert eng.run_until(2) == 2
    assert fired == [1, 2]
    assert eng.now == 2


def test_handler_can_schedule_within_same_run():
    eng = EventQueue()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            eng.schedule(eng.now + 1, APP_SEND, chain, n + 1)

    eng.schedule(0, APP_SEND, chain, 0)
    eng.run_until(3)
    assert fired == [0, 1, 2, 3]
    eng.run_until(100)
    assert fired == [0, 1, 2, 3, 4, 5]


def test_reentrant_run_rejected():
    eng = EventQueue()

    def reenter(_):
        eng.run_until(10)

    eng.schedule(1, APP_SEND, reenter)
    with pytest.raises(InvariantError, match="re-entered"):
        eng.run_until(5)


def test_dispatch_times_never_regress_and_runs_are_deterministic():
    def drive():
        eng = EventQueue()
        seen = []

        def handler(tag):
            seen.append((eng.now, tag))
            # deterministic self-scheduling fan-out
            if tag < 40:
                eng.schedule(eng.now + (tag % 7), APP_SEND, handler, tag + 3)
                eng.schedule(eng.now + (tag % 5), APP_SEND, handler, tag + 4)

        for i in range(8):
            eng.schedule(i % 3, APP_SEND, handler, i)
        eng.run_until(50)
        return seen

    first = drive()
    second = drive()
    assert first == second
    times = [t for t, _ in first]
    assert times == sorted(times)


def test_pending_counts_by_kind():
    eng = EventQueue()
    eng.schedule(5, CELL_ARRIVAL, lambda _: None)
    eng.schedule(6, CELL_ARRIVAL, lambda _: None)
    eng.schedule(8, APP_SEND, lambda _: None)
    assert eng.pending(CELL_ARRIVAL) == 2
    assert eng.pending() == 3
    eng.run_until(5)
    assert eng.pending(CELL_ARRIVAL) == 1
    assert eng.pending() == 2


def test_schedule_as_of_orders_equal_time_events_by_origin():
    eng = EventQueue()
    log = []

    def schedule_at_50(tag):
        eng.schedule(50, APP_SEND, _collector(log, tag))

    eng.schedule(10, APP_SEND, schedule_at_50, "from 10")
    eng.schedule(30, APP_SEND, schedule_at_50, "from 30, scheduled at 0")
    eng.schedule(20, APP_SEND, lambda _: eng.schedule(
        30, APP_SEND, schedule_at_50, "from 30, scheduled at 20"))
    # Made at t=0, placed as if made at t=20 and at t=30; at equal origin,
    # insertion order decides, and the as-of entries were inserted first.
    eng.schedule_as_of(20, 50, APP_SEND, _collector(log, "as of 20"))
    eng.schedule_as_of(30, 50, APP_SEND, _collector(log, "as of 30"))
    eng.run_until(100)
    assert [tag for tag, _ in log] == [
        "from 10",
        "as of 20",
        "as of 30",
        "from 30, scheduled at 0",
        "from 30, scheduled at 20",
    ]
    assert eng.now == 100
