"""Serializer hops against the queued output legs they replace."""

from __future__ import annotations

import random

import pytest

from ubrsim.engine import APP_SEND, CELL_ARRIVAL, EventQueue
from ubrsim.switches import InvariantError, OutputPort, Policy, PolicyConfig, SerializerHop

RATE = 155_520_000  # cell time 662500/243 ns, about 2726.34 ns
TAIL = PolicyConfig(Policy.TAIL_DROP)


def _queued_leg(eng, prop, sink, n_vcs):
    """The old wiring: a link of delay prop into a port, a second link out."""
    leg = OutputPort(eng, "leg", n_vcs, None, TAIL, RATE,
                     [lambda cell: eng.schedule(eng.now + prop, CELL_ARRIVAL, sink, cell)] * n_vcs)
    return leg, lambda cell: eng.schedule(eng.now + prop, CELL_ARRIVAL, leg.on_cell_arrival, cell)


def _drive(prop, feed, n_vcs=1, hop=True, capacity=None, end=10**9):
    """Run cells through an upstream port into per-VC legs.

    feed(eng, upstream) schedules the upstream arrivals. Returns the
    (time, cell) log of every leg's far end and each leg's peak occupancy.
    """
    eng = EventQueue()
    log = []

    def sink(cell):
        log.append((eng.now, cell))

    if hop:
        legs = [SerializerHop(eng, f"hop{v}", capacity, TAIL, RATE, prop, sink)
                for v in range(n_vcs)]
        entries = [h.on_cell for h in legs]
    else:
        legs, entries = zip(*(_queued_leg(eng, prop, sink, n_vcs) for _ in range(n_vcs)))
    upstream = OutputPort(eng, "up", n_vcs, None, TAIL, RATE, list(entries))
    feed(eng, upstream)
    eng.run_until(end)
    peaks = [h.peak(end) for h in legs] if hop else [leg.max_x for leg in legs]
    return log, peaks


def _tie_feed(eng, upstream):
    """Two cells the upstream port sends in separate busy periods, 2726 ns apart,
    so the second reaches the leg exactly as the leg finishes the first."""
    a, b = (0, 1, 0, True, None), (0, 2, 0, True, None)
    eng.schedule(0, CELL_ARRIVAL, upstream.on_cell_arrival, a)
    # Scheduled after the upstream port's first departure event, so b finds it idle.
    eng.schedule(1, APP_SEND, lambda _: eng.schedule(2726, CELL_ARRIVAL, upstream.on_cell_arrival, b))


def test_tie_starts_fresh_period_on_link_shorter_than_a_cell_time():
    prop = 1000
    log, peaks = _drive(prop, _tie_feed)
    # Upstream departures at 2726 and 5452; the leg finishes the first cell at
    # 5452 + prop, the instant the second arrives, and has already let it go.
    assert [t for t, _ in log] == [5452 + 2 * prop, 5452 + 2726 + 2 * prop]
    assert peaks == [1]
    assert (log, peaks) == _drive(prop, _tie_feed, hop=False)


def test_tie_joins_busy_period_on_link_at_least_a_cell_time():
    prop = 5000
    log, peaks = _drive(prop, _tie_feed)
    # The second cell joins the busy period begun at 2726 + prop: it completes
    # at the period's second exact cell boundary, round(2 * 662500/243) = 5453.
    assert [t for t, _ in log] == [5452 + 2 * prop, 2726 + prop + 5453 + prop]
    assert peaks == [2]
    assert (log, peaks) == _drive(prop, _tie_feed, hop=False)


@pytest.mark.parametrize("prop", [0, 1, 1000, 2726, 2727, 5000, 5_000_000])
def test_hop_matches_queued_leg_under_random_traffic(prop):
    n_vcs = 3

    def feed(eng, upstream):
        rng = random.Random(prop)
        t = 0
        for pid in range(300):
            t += rng.choice((0, 0, 2726, 2727, rng.randrange(20_000)))
            vc = rng.randrange(n_vcs)
            eng.schedule(t, CELL_ARRIVAL, upstream.on_cell_arrival, (vc, pid, 0, True, None))

    end = 2 * prop + 600_000  # mid-run, so cells are still inside the legs
    hop_run = _drive(prop, feed, n_vcs, end=end)
    assert hop_run == _drive(prop, feed, n_vcs, hop=False, end=end)
    # Only a link of at least one cell time lets an arrival join on a tie.
    assert max(hop_run[1]) == (2 if prop >= 2727 else 1)


def test_hop_fails_loudly_where_the_queued_leg_could_drop():
    with pytest.raises(InvariantError, match="could drop"):
        _drive(5000, _tie_feed, capacity=1)
    _drive(1000, _tie_feed, capacity=1)  # never holds two cells, so never at risk


def test_frame_aware_limit_is_threshold_plus_one():
    eng = EventQueue()
    epd = SerializerHop(eng, "h", 10, PolicyConfig(Policy.EPD, 1), RATE, 0, None)
    assert epd.limit == 2
    tail = SerializerHop(eng, "h", 10, TAIL, RATE, 0, None)
    assert tail.limit == 10
