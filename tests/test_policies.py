"""Drop-decision logic: spec'd examples, a rational-arithmetic oracle, and
port accounting exactness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ubrsim.aal5 import Frame, Segment
from ubrsim.engine import EventQueue
from ubrsim.switches import (
    ACCEPT,
    DROP_BUFFER_FULL,
    DROP_CONTINUED,
    DROP_EPD_THRESHOLD,
    DROP_LOAD_RATIO,
    DropReason,
    InvariantError,
    OutputPort,
    Policy,
    PolicyConfig,
    Verdict,
    epd_decide,
    fba_decide,
    selective_drop_decide,
    tail_drop_decide,
)

RATE = 155_520_000


# ---------------------------------------------------------------- tail drop

def test_tail_drop_boundaries():
    assert tail_drop_decide(999, 1000) is ACCEPT
    assert tail_drop_decide(1000, 1000) is DROP_BUFFER_FULL
    assert tail_drop_decide(0, 1000) is ACCEPT


# ---------------------------------------------------------------------- epd

def test_epd_threshold_is_strictly_greater():
    assert epd_decide(801, 1000, 800, True) is DROP_EPD_THRESHOLD
    assert epd_decide(800, 1000, 800, True) is ACCEPT
    assert epd_decide(801, 1000, 800, False) is ACCEPT  # mid-packet rides through
    assert epd_decide(1000, 1000, 800, False) is DROP_BUFFER_FULL


# --------------------------------------------------------------- load ratio

def load_ratio(y_i: int, n_a: int, x: int) -> Fraction:
    """Exact buffer share of one VC relative to the fair allocation x/n_a:
    the quantity the decision functions compare in cross-multiplied form."""
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
    z = Fraction(8, 10)
    # 200*5/950 ~ 1.053 > 0.8 -> drop
    d = selective_drop_decide(950, 1000, 900, 200, 5, z.numerator, z.denominator, True)
    assert d is DROP_LOAD_RATIO
    # below threshold nothing drops regardless of share
    d = selective_drop_decide(800, 1000, 900, 700, 5, z.numerator, z.denominator, True)
    assert d is ACCEPT
    # 100*5/950 ~ 0.526 <= 0.8 -> accept
    d = selective_drop_decide(950, 1000, 900, 100, 5, z.numerator, z.denominator, True)
    assert d is ACCEPT


# ----------------------------------------------------------------------- fba

def test_fba_examples():
    z = Fraction(8, 10)
    # lhs 250*5/950 ~ 1.316 vs cutoff 0.8*(100/50) = 1.6 -> accept
    d = fba_decide(950, 1000, 900, 250, 5, z.numerator, z.denominator, True)
    assert d is ACCEPT
    # at X=990 the cutoff shrinks to 0.8*(100/90) ~ 0.889 -> drop
    d = fba_decide(990, 1000, 900, 250, 5, z.numerator, z.denominator, True)
    assert d is DROP_LOAD_RATIO
    # X <= R never drops
    d = fba_decide(900, 1000, 900, 900, 1, z.numerator, z.denominator, True)
    assert d is ACCEPT


def test_fba_cutoff_strictly_decreasing_in_occupancy():
    k, r, z = 1000, 900, Fraction(8, 10)
    cutoffs = [z * Fraction(k - r, x - r) for x in range(r + 1, k + 1)]
    assert all(a > b for a, b in zip(cutoffs, cutoffs[1:]))
    assert cutoffs[-1] == z  # at X = K the cutoff collapses to Z


def test_fba_never_drops_what_selective_drop_accepts():
    z = Fraction(1, 2)
    for k in range(2, 13):
        for r in range(1, k):
            for x in range(k + 1):
                for y in range(x + 1):
                    for na in (1, 3, 5):
                        f = fba_decide(x, k, r, y, na, z.numerator, z.denominator, True)
                        s = selective_drop_decide(x, k, r, y, na, z.numerator, z.denominator, True)
                        if f is DROP_LOAD_RATIO:
                            assert s is DROP_LOAD_RATIO


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

def _oracle_epd(x, k, r, first):
    if x >= k:
        return (Verdict.DROP, DropReason.BUFFER_FULL)
    if first and x > r:
        return (Verdict.DROP, DropReason.EPD_THRESHOLD)
    return (Verdict.ACCEPT, DropReason.NONE)


def _oracle_sd(x, k, r, y, na, z, first):
    if x >= k:
        return (Verdict.DROP, DropReason.BUFFER_FULL)
    if first and x > r and load_ratio(y, na, x) > z:
        return (Verdict.DROP, DropReason.LOAD_RATIO)
    return (Verdict.ACCEPT, DropReason.NONE)


def _oracle_fba(x, k, r, y, na, z, first):
    if x >= k:
        return (Verdict.DROP, DropReason.BUFFER_FULL)
    if first and x > r and load_ratio(y, na, x) > z * Fraction(k - r, x - r):
        return (Verdict.DROP, DropReason.LOAD_RATIO)
    return (Verdict.ACCEPT, DropReason.NONE)


def test_decisions_match_rational_oracle_small_grid():
    # a quick slice of the exhaustive grid (the full K <= 30 sweep runs in
    # the acceptance suite)
    zs = [Fraction(2, 10), Fraction(8, 10), Fraction(1)]
    for k in range(2, 13):
        for r in range(1, k):
            for x in range(k + 1):
                for first in (True, False):
                    assert tuple(epd_decide(x, k, r, first)) == _oracle_epd(x, k, r, first)
                    for y in range(x + 1):
                        for na in (1, 2, 5):
                            for z in zs:
                                got = selective_drop_decide(
                                    x, k, r, y, na, z.numerator, z.denominator, first)
                                assert tuple(got) == _oracle_sd(x, k, r, y, na, z, first)
                                got = fba_decide(
                                    x, k, r, y, na, z.numerator, z.denominator, first)
                                assert tuple(got) == _oracle_fba(x, k, r, y, na, z, first)


# --------------------------------------------------------- port accounting

def _mk_port(policy, capacity, n_vcs=3, r=None, z=None, audit=True):
    eng = EventQueue()
    sink = []
    cfg = PolicyConfig(policy, r, z)
    port = OutputPort(eng, "p", n_vcs, capacity, cfg, RATE,
                      [lambda frame, idx: sink.append((frame, idx))] * n_vcs, audit=audit)
    return eng, port, sink


def _packet_cells(vc, n=12):
    """The n cells of one frame on VC vc: n references to one Frame, which
    the port numbers 0..n-1 as they arrive."""
    return [Frame(Segment(vc, False, 0, 512), n)] * n


def test_accepted_cells_depart_in_fifo_order():
    eng, port, sink = _mk_port(Policy.TAIL_DROP, None)
    cells = _packet_cells(0) + _packet_cells(1)
    for c in cells:
        port.on_cell_arrival(c)
    eng.run_until(10**9)
    assert sink == list(zip(cells, list(range(12)) * 2))
    assert port.x == 0 and port.na == 0


def test_departure_updates_per_vc_counts_and_active_count():
    eng, port, _ = _mk_port(Policy.TAIL_DROP, None)
    port.on_cell_arrival(_packet_cells(0, n=1)[0])
    port.on_cell_arrival(_packet_cells(1, n=1)[0])
    assert port.x == 2 and port.na == 2
    eng.run_until(2726)  # first departure only
    assert port.x == 1 and port.na == 1
    eng.run_until(10**9)
    assert port.x == 0 and port.na == 0


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
            assert port.on_cell_arrival(c) is ACCEPT
        d = port.on_cell_arrival(cells[4])
        assert d is DROP_BUFFER_FULL


def test_packet_atomicity_after_threshold_drop():
    eng, port, sink = _mk_port(Policy.EPD, 100, r=2)
    # three cells of an earlier packet push X above R
    for c in _packet_cells(1, n=4)[:3]:
        port.on_cell_arrival(c)
    cells = _packet_cells(0)
    assert port.on_cell_arrival(cells[0]) is DROP_EPD_THRESHOLD
    eng.run_until(10**9)  # buffer drains fully; X back to 0
    for c in cells[1:]:
        assert port.on_cell_arrival(c) is DROP_CONTINUED
    # next packet of the same VC is admitted again
    assert port.on_cell_arrival(_packet_cells(0)[0]) is ACCEPT


def test_tail_drop_keeps_no_packet_state():
    eng, port, sink = _mk_port(Policy.TAIL_DROP, 4)
    cells = _packet_cells(0)
    for c in cells[:4]:
        assert port.on_cell_arrival(c) is ACCEPT
    assert port.on_cell_arrival(cells[4]) is DROP_BUFFER_FULL
    eng.run_until(2726)  # one slot frees
    assert port.on_cell_arrival(cells[5]) is ACCEPT  # partial packet passes through


def test_mid_packet_overflow_poisons_rest_of_packet_for_frame_policies():
    eng, port, _ = _mk_port(Policy.EPD, 4, r=3)
    cells = _packet_cells(0)
    for c in cells[:4]:
        assert port.on_cell_arrival(c) is ACCEPT
    assert port.on_cell_arrival(cells[4]) is DROP_BUFFER_FULL
    eng.run_until(2726)
    assert port.on_cell_arrival(cells[5]) is DROP_CONTINUED


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
        # audit mode recomputes sum(Y)=X and the active count after every
        # mutation; surviving the loop is the assertion
    eng.run_until(10**9)
    assert port.x == 0
    assert sum(port.y) == 0
    assert port.na == 0


def test_audit_mode_catches_corruption():
    eng, port, _ = _mk_port(Policy.TAIL_DROP, None)
    port.on_cell_arrival(_packet_cells(0, n=1)[0])
    port.y[0] = 5  # sabotage
    with pytest.raises(InvariantError):
        port.on_cell_arrival(_packet_cells(1, n=1)[0])


def test_audit_mode_catches_a_frame_crossing_the_port_twice():
    eng, port, _ = _mk_port(Policy.TAIL_DROP, None)
    [cell] = _packet_cells(0, n=1)
    port.on_cell_arrival(cell)
    with pytest.raises(InvariantError, match="only once"):
        port.on_cell_arrival(cell)


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(Policy.EPD, None, None).validate(1000)
    with pytest.raises(ValueError):
        PolicyConfig(Policy.EPD, 1000, None).validate(1000)
    with pytest.raises(ValueError):
        PolicyConfig(Policy.FBA, 900, None).validate(1000)
    with pytest.raises(ValueError):
        PolicyConfig(Policy.EPD, 800, None).validate(None)
    PolicyConfig(Policy.EPD, 800, None).validate(1000)
    PolicyConfig(Policy.TAIL_DROP).validate(None)
