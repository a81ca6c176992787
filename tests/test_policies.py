"""Drop-decision logic: spec'd examples, a rational-arithmetic oracle, and
port accounting exactness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ubrsim.aal5 import Frame
from ubrsim.engine import EventQueue, InvariantError
from ubrsim.switches import DropReason, OutputPort, Policy

RATE = 155_520_000
NONE = DropReason.NONE
BUFFER_FULL = DropReason.BUFFER_FULL
EPD_THRESHOLD = DropReason.EPD_THRESHOLD
LOAD_RATIO = DropReason.LOAD_RATIO
CONTINUED = DropReason.CONTINUED_PACKET_DISCARD


N_VCS = 6  # VC 0 and five more: enough for N_a = 5 with Y_0 = 0


def _port(policy, k, r=None, z=None):
    """A port that checks nothing, so a test may set X and Y_i by hand."""
    return OutputPort(EventQueue(), "p", k, policy, r, z, RATE, [None] * N_VCS)


def _verdict(port, x, y=0, na=1, first=True):
    """Set X = x and, on a port that keeps Y_i, Y_0 = y and N_a = na: VC 0
    holds y cells and each further active VC one. Then offer the port one
    cell on VC 0: the first cell of a fresh 12-cell frame, or one from its
    middle."""
    port.x = x
    if port.y is not None:
        others = na - (1 if y else 0)
        assert 0 <= others < N_VCS, f"no Y_i gives Y_0={y} and N_a={na}"
        port.y[:] = [y] + [1] * others + [0] * (N_VCS - 1 - others)
    frame = Frame(0, 0, 512)
    frame.arrived = 0 if first else 1
    return port.on_cell_arrival(frame)


# ---------------------------------------------------------------- tail drop

def test_tail_drop_boundaries():
    port = _port(Policy.TAIL_DROP, 1000)
    assert _verdict(port, 999) is NONE
    assert _verdict(port, 1000) is BUFFER_FULL
    assert _verdict(port, 0) is NONE
    assert _verdict(_port(Policy.TAIL_DROP, None), 10**9) is NONE  # unbounded K


# ---------------------------------------------------------------------- epd

def test_epd_threshold_is_strictly_greater():
    port = _port(Policy.EPD, 1000, r=800)
    assert _verdict(port, 801) is EPD_THRESHOLD
    assert _verdict(port, 800) is NONE
    assert _verdict(port, 801, first=False) is NONE  # mid-packet rides through
    assert _verdict(port, 1000, first=False) is BUFFER_FULL


# --------------------------------------------------------------- load ratio

def load_ratio(y_i: int, n_a: int, x: int) -> Fraction:
    """Exact buffer share of one VC relative to the fair allocation x/n_a:
    the quantity the port's decisions compare in cross-multiplied form."""
    return Fraction(y_i * n_a, x)


def test_load_ratio_examples():
    assert load_ratio(200, 5, 1000) == 1
    assert load_ratio(950, 1, 950) == 1  # a lone VC sits exactly at fair share
    assert load_ratio(250, 5, 950) == Fraction(1250, 950)


def test_load_ratios_of_active_vcs_sum_to_na():
    rng = random.Random(7)
    for _ in range(200):
        n_active = rng.randint(1, 8)
        counts = [rng.randint(1, 50) for _ in range(n_active)]
        x = sum(counts)
        assert sum(load_ratio(y, n_active, x) for y in counts) == n_active


# ----------------------------------------------------------- selective drop

def test_selective_drop_examples():
    port = _port(Policy.SELECTIVE_DROP, 1000, r=900, z=Fraction(8, 10))
    # 200*5/950 ~ 1.053 > 0.8 -> drop
    assert _verdict(port, 950, y=200, na=5) is LOAD_RATIO
    # below threshold nothing drops regardless of share
    assert _verdict(port, 800, y=700, na=5) is NONE
    # 100*5/950 ~ 0.526 <= 0.8 -> accept
    assert _verdict(port, 950, y=100, na=5) is NONE


# ----------------------------------------------------------------------- fba

def test_fba_examples():
    port = _port(Policy.FBA, 1000, r=900, z=Fraction(8, 10))
    # lhs 250*5/950 ~ 1.316 vs cutoff 0.8*(100/50) = 1.6 -> accept
    assert _verdict(port, 950, y=250, na=5) is NONE
    # at X=990 the cutoff shrinks to 0.8*(100/90) ~ 0.889 -> drop
    assert _verdict(port, 990, y=250, na=5) is LOAD_RATIO
    # X <= R never drops
    assert _verdict(port, 900, y=900, na=1) is NONE


def test_fba_cutoff_strictly_decreasing_in_occupancy():
    k, r, z = 1000, 900, Fraction(8, 10)
    cutoffs = [z * Fraction(k - r, x - r) for x in range(r + 1, k + 1)]
    assert all(a > b for a, b in zip(cutoffs, cutoffs[1:]))
    assert cutoffs[-1] == z  # at X = K the cutoff collapses to Z


def test_fba_never_drops_what_selective_drop_accepts():
    z = Fraction(1, 2)
    for k in range(2, 13):
        for r in range(1, k):
            fba = _port(Policy.FBA, k, r, z)
            sd = _port(Policy.SELECTIVE_DROP, k, r, z)
            for x in range(k + 1):
                for y in range(x + 1):
                    for na in (1, 3, 5):
                        if _verdict(fba, x, y, na) is LOAD_RATIO:
                            assert _verdict(sd, x, y, na) is LOAD_RATIO


# ------------------------------------------------------- algebraic identity

def fba_threshold_identity_check(k: int, x: int, r: int) -> bool:
    """The two spellings of the FBA cutoff agree: 1+(K-X)/(X-R) == (K-R)/(X-R)."""
    assert r < x <= k, f"need R < X <= K, got K={k} X={x} R={r}"
    return 1 + Fraction(k - x, x - r) == Fraction(k - r, x - r)


def test_threshold_identity_examples():
    assert fba_threshold_identity_check(1000, 950, 900)
    assert fba_threshold_identity_check(1000, 1000, 100)


def test_threshold_identity_random_sample():
    rng = random.Random(20260810)
    for _ in range(2000):
        k = rng.randint(2, 10**6)
        r = rng.randint(1, k - 1)
        x = rng.randint(r + 1, k)
        assert fba_threshold_identity_check(k, x, r)


# ------------------------------------------------ oracle: exact rational law

def _oracle_tail(x, k):
    return BUFFER_FULL if x >= k else NONE


def _oracle_epd(x, k, r, first):
    if x >= k:
        return BUFFER_FULL
    if first and x > r:
        return EPD_THRESHOLD
    return NONE


def _oracle_sd(x, k, r, y, na, z, first):
    if x >= k:
        return BUFFER_FULL
    if first and x > r and load_ratio(y, na, x) > z:
        return LOAD_RATIO
    return NONE


def _oracle_fba(x, k, r, y, na, z, first):
    if x >= k:
        return BUFFER_FULL
    if first and x > r and load_ratio(y, na, x) > z * Fraction(k - r, x - r):
        return LOAD_RATIO
    return NONE


def test_decisions_match_rational_oracle_small_grid():
    zs = [Fraction(2, 10), Fraction(8, 10), Fraction(1)]
    for k in range(2, 17):
        tail = _port(Policy.TAIL_DROP, k)
        for r in range(1, k):
            epd = _port(Policy.EPD, k, r)
            sds = [_port(Policy.SELECTIVE_DROP, k, r, z) for z in zs]
            fbas = [_port(Policy.FBA, k, r, z) for z in zs]
            for x in range(k + 1):
                for first in (True, False):
                    assert _verdict(tail, x, first=first) is _oracle_tail(x, k)
                    assert _verdict(epd, x, first=first) is _oracle_epd(x, k, r, first)
                    for y in range(x + 1):
                        for na in (1, 2, 5):
                            for z, sd, fba in zip(zs, sds, fbas):
                                got = _verdict(sd, x, y, na, first)
                                assert got is _oracle_sd(x, k, r, y, na, z, first)
                                got = _verdict(fba, x, y, na, first)
                                assert got is _oracle_fba(x, k, r, y, na, z, first)


# --------------------------------------------------------- port accounting

def _mk_port(policy, capacity, n_vcs=3, r=None, z=None):
    """A port that runs check() after every cell arrival and, from inside its
    next hop, at every departure; sink collects the departed cells."""
    eng = EventQueue()
    sink = []

    def next_hop(frame, idx):
        port.check()
        sink.append((frame, idx))

    port = OutputPort(eng, "p", capacity, policy, r, z, RATE, [next_hop] * n_vcs)
    arrive = port.on_cell_arrival

    def on_cell_arrival(frame):
        reason = arrive(frame)
        port.check()
        return reason

    port.on_cell_arrival = on_cell_arrival
    return eng, port, sink


def _packet_cells(vc, n=12):
    """The n cells of one frame on VC vc: n references to one Frame, which
    the port numbers 0..n-1 as they arrive."""
    frame = Frame(vc, 0, 512)
    frame.last = n - 1
    return [frame] * n


def _sd_port():
    """A checked Selective Drop port, with an unbounded buffer and an R that
    the tests' few cells never pass, so it keeps Y_i and drops nothing."""
    return _mk_port(Policy.SELECTIVE_DROP, None, r=100, z=Fraction(8, 10))


def test_only_selective_drop_and_fba_ports_keep_per_vc_counts():
    assert _port(Policy.TAIL_DROP, 10).y is None
    assert _port(Policy.EPD, 10, r=5).y is None
    assert _port(Policy.SELECTIVE_DROP, 10, r=5, z=Fraction(1)).y == [0] * N_VCS
    assert _port(Policy.FBA, 10, r=5, z=Fraction(1)).y == [0] * N_VCS


def test_accepted_cells_depart_in_fifo_order():
    eng, port, sink = _sd_port()
    cells = _packet_cells(0) + _packet_cells(1)
    for c in cells:
        port.on_cell_arrival(c)
    eng.run_until(10**9)
    assert sink == list(zip(cells, list(range(12)) * 2))
    assert port.x == 0 and port.y == [0, 0, 0]


def test_departure_updates_per_vc_counts_and_active_count():
    # N_a, the VCs with cells queued, is counted from Y_i where it is read.
    eng, port, _ = _sd_port()
    port.on_cell_arrival(_packet_cells(0, n=1)[0])
    port.on_cell_arrival(_packet_cells(1, n=1)[0])
    assert port.x == 2 and port.y == [1, 1, 0]  # N_a = 2
    eng.run_until(2726)  # first departure only
    assert port.x == 1 and port.y == [0, 1, 0]  # N_a = 1
    eng.run_until(10**9)
    assert port.x == 0 and port.y == [0, 0, 0]  # N_a = 0


def test_buffer_full_drops_under_every_policy():
    for policy, r, z in (
        (Policy.TAIL_DROP, None, None),
        (Policy.EPD, 2, None),
        (Policy.SELECTIVE_DROP, 2, Fraction(8, 10)),
        (Policy.FBA, 2, Fraction(8, 10)),
    ):
        eng, port, _ = _mk_port(policy, 4, r=r, z=z)
        # fill to capacity with one frame: its first cell finds X = 0 <= R,
        # and the mid-frame cells after it dodge the thresholds
        cells = _packet_cells(0)
        for c in cells[:4]:
            assert port.on_cell_arrival(c) is NONE
        d = port.on_cell_arrival(cells[4])
        assert d is BUFFER_FULL


def test_packet_atomicity_after_threshold_drop():
    eng, port, sink = _mk_port(Policy.EPD, 100, r=2)
    # three cells of an earlier packet push X above R
    for c in _packet_cells(1, n=4)[:3]:
        port.on_cell_arrival(c)
    cells = _packet_cells(0)
    assert port.on_cell_arrival(cells[0]) is EPD_THRESHOLD
    eng.run_until(10**9)  # buffer drains fully; X back to 0
    for c in cells[1:]:
        assert port.on_cell_arrival(c) is CONTINUED
    # next packet of the same VC is admitted again
    assert port.on_cell_arrival(_packet_cells(0)[0]) is NONE


def test_tail_drop_keeps_no_packet_state():
    eng, port, sink = _mk_port(Policy.TAIL_DROP, 4)
    cells = _packet_cells(0)
    for c in cells[:4]:
        assert port.on_cell_arrival(c) is NONE
    assert port.on_cell_arrival(cells[4]) is BUFFER_FULL
    eng.run_until(2726)  # one slot frees
    assert port.on_cell_arrival(cells[5]) is NONE  # partial packet passes through


def test_mid_packet_overflow_poisons_rest_of_packet_for_frame_policies():
    eng, port, _ = _mk_port(Policy.EPD, 4, r=3)
    cells = _packet_cells(0)
    for c in cells[:4]:
        assert port.on_cell_arrival(c) is NONE
    assert port.on_cell_arrival(cells[4]) is BUFFER_FULL
    eng.run_until(2726)
    assert port.on_cell_arrival(cells[5]) is CONTINUED


def test_accounting_identities_hold_under_random_traffic():
    rng = random.Random(99)
    eng, port, _ = _mk_port(Policy.SELECTIVE_DROP, 30, n_vcs=4, r=20, z=Fraction(8, 10))
    t = 0
    for _ in range(400):
        t += rng.randint(0, 4000)
        eng.run_until(t)
        vc = rng.randrange(4)
        for cell in _packet_cells(vc, n=rng.randint(1, 12)):
            port.on_cell_arrival(cell)
        # the port recounts X and each Y_i after every arrival and
        # departure; surviving the loop is the assertion
    eng.run_until(10**9)
    assert port.x == 0
    assert port.y == [0, 0, 0, 0]


def test_check_catches_corruption():
    eng, port, _ = _sd_port()
    port.on_cell_arrival(_packet_cells(0, n=1)[0])
    port.y[0] = 5  # sabotage
    with pytest.raises(InvariantError):
        port.on_cell_arrival(_packet_cells(1, n=1)[0])


def test_check_catches_a_cell_counted_on_the_wrong_vc():
    # Moving one cell's count between two active VCs keeps sum(Y_i) = X and
    # N_a; only recounting each Y_i from the queue sees it.
    eng, port, _ = _sd_port()
    for c in _packet_cells(0, n=2) + _packet_cells(1, n=1):
        port.on_cell_arrival(c)
    assert port.y == [2, 1, 0]
    port.y[0] -= 1
    port.y[1] += 1
    match = r"p: Y_i=\[1, 2, 0\] but queued cells per VC are \[2, 1, 0\]"
    with pytest.raises(InvariantError, match=match):
        port.check()


def test_port_catches_a_frame_crossing_it_twice():
    # An unchecked port: the frame test runs on every admitted cell.
    port = _port(Policy.TAIL_DROP, None)
    [cell] = _packet_cells(0, n=1)
    assert port.on_cell_arrival(cell) is NONE
    with pytest.raises(InvariantError, match="only once"):
        port.on_cell_arrival(cell)
