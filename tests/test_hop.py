"""Serializer hops against the queued output legs and per-cell host
reassembly they replace."""

from __future__ import annotations

import random

import pytest

from ubrsim.aal5 import Frame, Reassembler
from ubrsim.engine import APP_SEND, CELL_ARRIVAL, EventQueue, InvariantError
from ubrsim.switches import OutputPort, Policy, SerializerHop

RATE = 155_520_000  # cell time 662500/243 ns, about 2726.34 ns
TAIL = Policy.TAIL_DROP


def _frame(vc, pid, n):
    """The n cells of one AAL5 frame on VC vc, numbered pid by its seq, as
    (frame, index) pairs."""
    frame = Frame(vc, pid, 0)
    frame.last = n - 1
    return [(frame, i) for i in range(n)]


def _offer(port, cell):
    """Hand cell (frame, idx) to port. The cells ahead of it in its frame
    may have been lost before the port, or the frame may already have
    crossed another port, so set the frame's arrival counter to idx first."""
    frame, idx = cell
    frame.arrived = idx
    port.on_cell_arrival(frame)


class _QueuedLeg:
    """The old wiring: a link of delay prop into a port, a second link out,
    and one host event per cell, reassembled at the host."""

    def __init__(self, eng, prop, sink, n_vcs):
        self.eng = eng
        self.prop = prop
        self.sink = sink
        self.port = OutputPort(eng, "leg", None, TAIL, None, None, RATE, [self._depart] * n_vcs)
        self.reasm = Reassembler()
        self.delivered = 0

    def on_cell(self, frame, idx):
        self.eng.schedule(self.eng.now + self.prop, CELL_ARRIVAL, self._arrive, (frame, idx))

    def _arrive(self, cell):
        _offer(self.port, cell)

    def _depart(self, frame, idx):
        self.eng.schedule(self.eng.now + self.prop, CELL_ARRIVAL, self._land, (frame, idx))

    def _land(self, cell):
        self.delivered += 1
        frame = self.reasm.push(*cell)
        if frame is not None:
            self.sink(frame)

    def counts(self, cells):
        return self.port.max_x, self.delivered, self.reasm.discards, cells - self.delivered


def _hop_counts(hop, cells):
    return hop.peak, cells - hop.late, hop.reasm.discards, hop.late


def _counted(on_cell, handed, v):
    """on_cell, counting in handed[v] the cells handed to it."""
    def count(frame, idx):
        handed[v] += 1
        on_cell(frame, idx)
    return count


def _drive(prop, feed, n_vcs=1, hop=True, capacity=None, ends=(10**9,)):
    """Run cells through an upstream port into per-VC legs.

    feed(eng, upstream) schedules the upstream arrivals as APP_SEND events,
    so a CELL_ARRIVAL still pending after a hop run would be a frame
    delivery past the horizon. A hop counts at the horizon it is built
    with, so each horizon in ends gets a hop run of its own; the queued
    legs run once and are read at each horizon in turn. Returns the (time,
    vc, seq) log of the frames every leg's host got by the last horizon
    (frames compare by identity, so a log names them by value) and, at each
    horizon, the log's length and each leg's (peak occupancy, cells
    delivered, reassembly discards, cells in flight).
    """
    snapshots = []
    for horizons in ([end] for end in ends) if hop else [ends]:
        eng = EventQueue()
        log = []

        def sink(frame, eng=eng, log=log):
            log.append((eng.now, frame.vc, frame.seq))

        if hop:
            legs = [SerializerHop(eng, f"hop{v}", capacity, None, RATE, prop, sink, horizons[0])
                    for v in range(n_vcs)]
        else:
            legs = [_QueuedLeg(eng, prop, sink, n_vcs) for _ in range(n_vcs)]
        handed = [0] * n_vcs  # cells the upstream port handed to each leg
        upstream = OutputPort(eng, "up", None, TAIL, None, None, RATE,
                              [_counted(leg.on_cell, handed, v) for v, leg in enumerate(legs)])
        feed(eng, upstream)
        for end in horizons:
            eng.run_until(end)
            if hop:
                counts = [_hop_counts(h, c) for h, c in zip(legs, handed)]
                assert eng.pending(CELL_ARRIVAL) == 0
            else:
                counts = [leg.counts(c) for leg, c in zip(legs, handed)]
            snapshots.append((len(log), counts))
    return log, snapshots


def _feed_cells(cells):
    """A feed that offers (time, cell) pairs to the upstream port."""
    def feed(eng, upstream):
        for t, cell in cells:
            eng.schedule(t, APP_SEND, lambda c: _offer(upstream, c), cell)
    return feed


def _tie_feed(eng, upstream):
    """Two cells the upstream port sends in separate busy periods, 2726 ns apart,
    so the second reaches the leg exactly as the leg finishes the first."""
    a, b = _frame(0, 1, 1)[0], _frame(0, 2, 1)[0]
    eng.schedule(0, APP_SEND, lambda c: _offer(upstream, c), a)
    # Scheduled after the upstream port's first departure event, so b finds it idle.
    eng.schedule(1, APP_SEND,
                 lambda _: eng.schedule(2726, APP_SEND, lambda c: _offer(upstream, c), b))


def _peaks(snapshots):
    return [peak for peak, *_ in snapshots[-1][1]]


def test_tie_starts_fresh_period_on_link_shorter_than_a_cell_time():
    prop = 1000
    log, snapshots = _drive(prop, _tie_feed)
    # Upstream departures at 2726 and 5452; the leg finishes the first cell at
    # 5452 + prop, the instant the second arrives, and has already let it go.
    assert [t for t, *_ in log] == [5452 + 2 * prop, 5452 + 2726 + 2 * prop]
    assert _peaks(snapshots) == [1]
    assert (log, snapshots) == _drive(prop, _tie_feed, hop=False)


def test_tie_joins_busy_period_on_link_at_least_a_cell_time():
    prop = 5000
    log, snapshots = _drive(prop, _tie_feed)
    # The second cell joins the busy period begun at 2726 + prop: it completes
    # at the period's second exact cell boundary, round(2 * 662500/243) = 5453.
    assert [t for t, *_ in log] == [5452 + 2 * prop, 2726 + prop + 5453 + prop]
    assert _peaks(snapshots) == [2]
    assert (log, snapshots) == _drive(prop, _tie_feed, hop=False)


def _lossy_traffic(seed, n_vcs, n_frames):
    """(time, cell) pairs of random frames on n_vcs VCs, each frame losing
    none of its cells, its first, a middle one, its last, all but its last,
    or a random subset before the upstream port. A frame that loses its last
    cell followed by one that keeps only its last makes one push discard two
    frames."""
    rng = random.Random(seed)
    out, t = [], 0
    for pid in range(n_frames):
        vc = rng.randrange(n_vcs)
        n = rng.randint(1, 6)
        cells = _frame(vc, pid, n)
        loss = rng.choice(("none", "none", "first", "middle", "last", "all_but_last", "random"))
        if n == 1:
            lost = {0} if loss == "random" and rng.random() < 0.5 else set()
        elif loss == "first":
            lost = {0}
        elif loss == "middle":
            lost = {rng.randrange(1, n - 1)} if n > 2 else {0}
        elif loss == "last":
            lost = {n - 1}
        elif loss == "all_but_last":
            lost = set(range(n - 1))
        elif loss == "random":
            lost = {i for i in range(n) if rng.random() < 0.4}
        else:
            lost = set()
        for i, cell in enumerate(cells):
            t += rng.choice((0, 0, 2726, 2727, rng.randrange(20_000)))
            if i not in lost:
                out.append((t, cell))
    return out


@pytest.mark.parametrize("prop", [0, 1, 1000, 2726, 2727, 5000, 5_000_000])
def test_hop_matches_queued_leg_under_random_traffic(prop):
    n_vcs = 3
    feed = _feed_cells(_lossy_traffic(prop, n_vcs, 300))
    # Horizons every 50,001 ns over the traffic's host arrivals (about 3 ms)
    # cut frames in flight on every leg.
    ends = [2 * prop + k * 50_001 for k in range(80)] + [2 * prop + 10**7]
    hop_run = _drive(prop, feed, n_vcs, ends=ends)
    assert hop_run == _drive(prop, feed, n_vcs, hop=False, ends=ends)
    log, snapshots = hop_run
    # Only a link of at least one cell time lets an arrival join on a tie.
    assert max(_peaks(snapshots)) == (2 if prop >= 2727 else 1)
    # The horizons do cut frames and cells in flight, and frames are lost.
    assert any(in_flight for _, counts in snapshots[:-1] for *_, in_flight in counts)
    assert 0 < len(log) < 300
    assert sum(discards for _, _, discards, _ in snapshots[-1][1]) > 0


def test_lone_last_cell_after_a_truncated_frame_discards_two():
    # Frame 1 loses its last cell and frame 2 keeps only its last: the one
    # push of that lone cell abandons frame 1 and fails frame 2.
    first, second = _frame(0, 1, 3), _frame(0, 2, 3)
    feed = _feed_cells([(0, first[0]), (0, first[1]), (0, second[2]), (0, _frame(0, 3, 1)[0])])
    prop = 5000
    # The upstream port finishes the lone cell at 8179 ns; it reaches the leg
    # at 13179, as the cell ahead completes, joins that busy period (begun at
    # 10453) and completes at 10453 + 5453, so the host has it at 20906.
    landed = 20906
    ends = (landed - 1, landed, 10**9)
    log, snapshots = _drive(prop, feed, ends=ends)
    assert [discards for _, [(_, _, discards, _)] in snapshots] == [0, 2, 2]
    assert [seq for _, _, seq in log] == [3]
    assert (log, snapshots) == _drive(prop, feed, hop=False, ends=ends)


def test_hop_fails_loudly_where_the_queued_leg_could_drop():
    with pytest.raises(InvariantError, match="could drop"):
        _drive(5000, _tie_feed, capacity=1)
    _drive(1000, _tie_feed, capacity=1)  # never holds two cells, so never at risk


def test_frame_aware_limit_is_threshold_plus_one():
    eng = EventQueue()
    epd = SerializerHop(eng, "h", 10, 1, RATE, 0, None, 10**9)
    assert epd.limit == 2
    tail = SerializerHop(eng, "h", 10, None, RATE, 0, None, 10**9)
    assert tail.limit == 10


def test_hop_keeps_only_cells_in_its_port():
    # A long steady stream at line rate: the hop's per-cell store holds the
    # cells in the leg's port, at most two, not the cells on its links or
    # every cell it has seen.
    prop = 100_000
    cells = [(0, c) for pid in range(400) for c in _frame(0, pid, 5)]
    eng = EventQueue()
    hop = SerializerHop(eng, "hop", None, None, RATE, prop, lambda frame: None, 10**9)
    upstream = OutputPort(eng, "up", None, TAIL, None, None, RATE, [hop.on_cell])
    _feed_cells(cells)(eng, upstream)
    eng.run_until(10**9)
    assert upstream.cells_out == 2000 and hop.late == 0
    assert len(hop.done) <= 2
