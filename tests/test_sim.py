"""End-to-end runs at small scale: conservation, determinism, loss recovery."""

from __future__ import annotations

import pytest

from collections import Counter

from ubrsim.aal5 import cells_for_segment
from ubrsim.cli import CwndTrace
from ubrsim.engine import APP_SEND, CELL_ARRIVAL, CELL_DEPARTURE, TIMER_TICK, InvariantError
from ubrsim.scenario import build_scenario
from ubrsim.sim import Simulation, run_scenario

TENTH_SECOND = 100_000_000


def _tiny(**kw):
    kw.setdefault("config", "lan")
    kw.setdefault("sources", 2)
    kw.setdefault("duration_ns", TENTH_SECOND)
    return build_scenario(**kw)


def _then_check(port, fn):
    def checked(*args):
        fn(*args)
        port.check()

    return checked


def _run_checked(scenario):
    """Run scenario with each port's check() after every cell arrival (each
    CellLink sink) and every departure (each next_hop entry), as well as at
    the end of the run."""
    sim = Simulation(scenario)
    for link in sim.data_links + sim.ack_links:
        link.sink = _then_check(link.sink.__self__, link.sink)
    for port in sim.ports:
        port.next_hop = [_then_check(port, hop) for hop in port.next_hop]
    return sim.run()


def test_lossfree_run_delivers_in_order_with_no_drops():
    result = _run_checked(_tiny(buffer=None))
    assert result.cells_dropped == 0
    assert result.reassembly_discards == 0
    assert result.retransmitted_segments == 0
    assert result.timeouts == 0
    assert all(b > 0 for b in result.per_conn_delivered_bytes)
    assert result.cells_conserved()
    assert result.fairness > 0.99


def test_lossfree_queue_bounded_by_window_sum():
    result = _run_checked(_tiny(buffer=None))
    window_cells = (65535 // 512) * 12 * 2
    assert result.max_queue_cells <= window_cells


def test_zero_loss_buffer_is_the_infinite_runs_peak():
    # The zero-loss claim at a short horizon, LAN, 5 sources: by 0.05 s the
    # infinite-buffer peak P has reached its full-length 7,592 cells. P is
    # within the sum of the receiver windows in cells, a tail-drop buffer of
    # K = P changes nothing, and K = P - 1 drops exactly one cell.
    point = dict(config="lan", sources=5, duration_ns=50_000_000)
    scenario = build_scenario(**point)
    infinite = run_scenario(scenario)
    peak = infinite.max_queue_cells
    # The sender emits only full segments, so a window holds W // mss of them.
    window_cells = (scenario.n_sources * (scenario.rcvwnd // scenario.mss)
                    * cells_for_segment(scenario.mss))
    assert peak == 7_592 <= window_cells == 7_620
    assert run_scenario(build_scenario(buffer=peak, **point)) == infinite
    assert run_scenario(build_scenario(buffer=peak - 1, **point)).cells_dropped == 1


# The cells a LAN round trip keeps outside the bottleneck queue: measured,
# not derived, as the sum of the windows less the infinite-buffer peak at
# all 16 points N in {2, 5, 10, 15}, W in {8,192, 16,384, 32,768, 65,535}
# run for 0.2 s.
LAN_PIPE_CELLS = 28


@pytest.mark.parametrize("sources, rcvwnd", [(2, 8_192), (5, 16_384), (10, 32_768),
                                             (15, 65_535)])
def test_zero_loss_peak_is_the_window_sum_less_the_lan_pipe(sources, rcvwnd):
    # The exact form of the zero-loss claim: once every window is open, the
    # infinite-buffer peak is each window's full segments in cells, summed,
    # less the pipe. 0.1 s is long enough at these points; 0.05 s is not.
    scenario = build_scenario(config="lan", sources=sources, rcvwnd=rcvwnd,
                              duration_ns=TENTH_SECOND)
    window_cells = sources * (rcvwnd // scenario.mss) * cells_for_segment(scenario.mss)
    assert run_scenario(scenario).max_queue_cells == window_cells - LAN_PIPE_CELLS


def test_identical_runs_are_identical():
    a = run_scenario(_tiny(buffer=None))
    b = run_scenario(_tiny(buffer=None))
    assert a == b


def test_small_buffer_run_drops_and_recovers():
    result = _run_checked(_tiny(buffer=60, duration_ns=3 * TENTH_SECOND))
    assert result.cells_dropped > 0
    assert result.reassembly_discards > 0
    assert result.retransmitted_segments > 0
    assert result.timeouts > 0
    assert result.cells_conserved()
    assert all(b > 0 for b in result.per_conn_delivered_bytes)
    assert result.efficiency < 1.0


def test_epd_run_has_no_reassembly_waste_from_threshold_drops():
    # with generous headroom below capacity, EPD only ever kills whole packets
    scn = _tiny(buffer=300, policy="epd", r_cells=100, duration_ns=3 * TENTH_SECOND)
    result = _run_checked(scn)
    assert result.cells_dropped > 0
    assert result.drops_by_reason.get("BUFFER_FULL", 0) == 0
    assert result.reassembly_discards == 0


def test_cwnd_trace_collection():
    sim = CwndTrace(_tiny(buffer=None))
    sim.run()
    for trace in sim.traces:
        assert trace[0][1] == 512  # every sender starts at one segment
        times = [t for t, _ in trace]
        assert times == sorted(times)
        assert trace[-1][1] > 512


class _RoundTrace(Simulation):
    """Logs each sender's cwnd at every round boundary, seen at its send
    decisions; a round ends when the ack clock has covered one full window."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.rounds = [[] for _ in self.senders]
        self.targets = [0] * len(self.senders)

    def _send(self, conn):
        super()._send(conn)
        sender = self.senders[conn]
        if sender.snd_una >= self.targets[conn]:
            self.rounds[conn].append(sender.cwnd)
            self.targets[conn] = sender.snd_nxt


def test_round_trace_doubles_in_slow_start():
    sim = _RoundTrace(_tiny(buffer=None))
    sim.run()
    for rounds in sim.rounds:
        assert len(rounds) > 2
        # slow start: cwnd at consecutive round boundaries doubles (+-1 mss)
        for prev, cur in zip(rounds, rounds[1:]):
            if cur >= 65535:
                break
            assert abs(cur - 2 * prev) <= 512


def test_goback_checks_recorded_in_lossy_run():
    # Record, beside the sender's own check, each first emission after a
    # timeout as (seq, snd_una).
    sim = Simulation(_tiny(buffer=60, duration_ns=3 * TENTH_SECOND))
    checks = []
    for sender in sim.senders:
        def try_send(now, sender=sender, send=sender.try_send):
            pending, una = sender._retx_pending, sender.snd_una
            out = send(now)
            if pending and out:
                checks.append((out[0].seq, una))
            return out

        sender.try_send = try_send
    sim.run()
    assert checks  # timeouts happened
    assert all(seq == una for seq, una in checks)


def test_max_queue_tracked_per_port():
    result = run_scenario(_tiny(buffer=None))
    assert result.max_queue_by_port["A.fwd"] == result.max_queue_cells
    assert set(result.max_queue_by_port) == {
        "A.fwd", "B.rev", "B.dst0", "B.dst1", "A.src0", "A.src1",
    }
    # per-destination legs never queue more than a couple of cells
    assert result.max_queue_by_port["B.dst0"] <= 2
    assert result.max_queue_by_port["B.rev"] >= 1


def test_acks_survive_tight_reverse_buffer():
    # reverse-path ports run the same policy (threshold scaled to their own
    # capacity) but acks are sparse enough that a modest buffer carries them
    from fractions import Fraction

    scn = _tiny(buffer=2000, reverse_buffer=50, policy="epd",
                r_fraction=Fraction(9, 10))
    result = _run_checked(scn)
    assert all(b > 0 for b in result.per_conn_delivered_bytes)


def test_conservation_is_checked_on_every_run():
    sim = Simulation(_tiny(buffer=None))

    def lose_a_delivery(_):
        sim.a_fwd_port.cells_out -= 1

    sim.engine.schedule(TENTH_SECOND // 2, APP_SEND, lose_a_delivery)
    with pytest.raises(InvariantError, match="conservation"):
        sim.run()


def test_hops_schedule_no_delivery_past_the_horizon():
    # 193-cell frames on the 5 ms hops, as in golden wan5-mss9180-infinite:
    # the horizon cuts frames on the hops.
    scn = build_scenario(config="wan", sources=5, mss=9180, duration_ns=TENTH_SECOND)
    sim = Simulation(scn)
    eng = sim.engine
    deliveries = []
    schedule_as_of = eng.schedule_as_of

    def recording(origin, fire_time, kind, callback, payload=None):
        deliveries.append(fire_time)
        schedule_as_of(origin, fire_time, kind, callback, payload)

    eng.schedule_as_of = recording
    sim.run()
    assert deliveries and max(deliveries) <= scn.duration_ns
    assert any(h.late for h in sim.b_dst_hops + sim.a_src_hops)


def test_each_host_receives_only_its_own_senders_frames_once():
    # A segment is one mutable Frame from sender to sink, so pin that no
    # layer swaps, shares or repeats frames across hosts, under loss.
    scn = build_scenario(config="lan", sources=15, buffer=1000, policy="tail_drop",
                         duration_ns=2 * TENTH_SECOND)
    sim = Simulation(scn)
    sent = [{} for _ in range(scn.n_sources)]  # id -> frame, kept alive
    delivered = [[] for _ in range(scn.n_sources)]

    def sending(i, try_send):
        def wrapped(now):
            out = try_send(now)
            sent[i].update((id(f), f) for f in out)
            return out
        return wrapped

    def receiving(i, sink):
        def wrapped(frame):
            delivered[i].append(frame)
            sink(frame)
        return wrapped

    for i, (sender, hop) in enumerate(zip(sim.senders, sim.b_dst_hops)):
        sender.try_send = sending(i, sender.try_send)
        hop.sink = receiving(i, hop.sink)
    result = sim.run()
    assert result.cells_dropped > 0 and result.retransmitted_segments > 0
    for i in range(scn.n_sources):
        assert delivered[i]
        assert all(sent[i].get(id(f)) is f for f in delivered[i])
        assert len({id(f) for f in delivered[i]}) == len(delivered[i])


def test_port_accounting_is_checked_on_every_run():
    # Selective Drop, so the port keeps the per-VC counts Y_i that go wrong.
    sim = Simulation(_tiny(buffer=1000, policy="selective_drop"))

    def miscount(_):
        sim.a_fwd_port.y[0] += 1

    sim.engine.schedule(TENTH_SECOND // 2, APP_SEND, miscount)
    with pytest.raises(InvariantError, match=r"A\.fwd: Y_i="):
        sim.run()


def test_every_event_has_one_of_four_kinds_and_dispatches_add_up():
    # Per-kind dispatch counts are scheduled minus pending, per kind; they
    # account for every dispatched event only if no event has another kind.
    kinds = (CELL_ARRIVAL, CELL_DEPARTURE, TIMER_TICK, APP_SEND)
    sim = Simulation(_tiny(buffer=60))
    eng = sim.engine
    scheduled = Counter()
    schedule, run_until = eng.schedule, eng.run_until
    returned = []

    def counting_schedule(fire_time, kind, callback, payload=None):
        scheduled[kind] += 1
        schedule(fire_time, kind, callback, payload)

    eng.schedule = counting_schedule
    eng.run_until = lambda end: returned.append(run_until(end)) or returned[-1]
    result = sim.run()
    assert result.cells_dropped > 0 and result.reassembly_discards > 0
    assert set(scheduled) <= set(kinds)
    assert sum(eng.pending(k) for k in kinds) == eng.pending() > 0
    assert returned == [sum(scheduled[k] - eng.pending(k) for k in kinds)]
