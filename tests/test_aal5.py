"""Framing, reassembly, and cell-clock timing oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ubrsim.aal5 import (
    CELL_PAYLOAD_BYTES,
    CELL_WIRE_BYTES,
    FRAME_OVERHEAD_BYTES,
    CellClock,
    CellLink,
    Frame,
    Reassembler,
    cell_time,
    cells_for_segment,
    segment_to_cells,
)
from ubrsim.engine import CELL_ARRIVAL, EventQueue

RATE = 155_520_000


def _cells_by_packing(payload_len):
    # Independent oracle: pack bytes one cell at a time.
    remaining = payload_len + FRAME_OVERHEAD_BYTES
    cells = 0
    while remaining > 0:
        remaining -= CELL_PAYLOAD_BYTES
        cells += 1
    return cells


def test_standard_segment_occupies_twelve_cells():
    assert cells_for_segment(512) == 12
    assert 12 * CELL_WIRE_BYTES == 636


def test_small_payload_cell_counts_match_packing_oracle():
    assert cells_for_segment(0) == _cells_by_packing(0) == 2
    assert cells_for_segment(1) == _cells_by_packing(1) == 2
    for payload in range(0, 2049):
        assert cells_for_segment(payload) == _cells_by_packing(payload)


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        cells_for_segment(-1)


def _numbered(cells):
    """The (frame, index) pairs of a cell train, as a port numbers them."""
    return list(zip(cells, range(len(cells))))


def test_segment_to_cells_shape():
    frame = Frame(3, 4096, 512)
    cells = segment_to_cells(frame)
    assert len(cells) == 12
    assert [i == frame.last for i in range(12)] == [False] * 11 + [True]
    assert all(c is frame for c in cells)
    assert (frame.vc, frame.seq, frame.ack_no) == (3, 4096, 0)
    assert frame.arrived == 0 and not frame.doomed


def test_segment_to_cells_is_n_references_to_one_frame():
    cells = segment_to_cells(Frame(2, 0, 9180))
    assert len(cells) == cells_for_segment(9180) == 193
    assert len({id(c) for c in cells}) == 1
    assert isinstance(cells[0], Frame) and cells[0].last == 192
    # A frame sizes its own train: 40 bytes fill 2 cells exactly, 1,460 make 32.
    for payload, n in ((0, 2), (40, 2), (41, 3), (512, 12), (1460, 32)):
        assert len(segment_to_cells(Frame(0, 0, payload))) == _cells_by_packing(payload) == n


def test_ack_is_two_cells_with_last_marked():
    cells = segment_to_cells(Frame(0, 0, 0, ack_no=512))
    assert len(cells) == 2
    assert [i == cells[i].last for i in range(2)] == [False, True]


def test_consecutive_segments_use_distinct_frames():
    a = segment_to_cells(Frame(0, 0, 512))
    b = segment_to_cells(Frame(0, 512, 512))
    assert {id(c) for c in a} == {id(a[0])}
    assert {id(c) for c in b} == {id(b[0])}
    assert a[0] is not b[0]


def test_reassembly_roundtrip_is_identity():
    reasm = Reassembler()
    for frame in (Frame(1, 0, 512), Frame(1, 0, 0, 512), Frame(1, 512, 512)):
        cells = _numbered(segment_to_cells(frame))
        results = [reasm.push(*c) for c in cells]
        assert results[:-1] == [None] * (len(cells) - 1)
        assert results[-1] is frame
    assert reasm.discards == 0


def test_tail_loss_discards_on_next_packet():
    reasm = Reassembler()
    first = _numbered(segment_to_cells(Frame(0, 0, 512)))
    second = _numbered(segment_to_cells(Frame(0, 512, 512)))
    for cell in first[:11]:  # last cell lost in the network
        assert reasm.push(*cell) is None
    out = [reasm.push(*c) for c in second]
    assert reasm.discards == 1
    assert out[-1] is second[0][0]


def test_head_loss_discards_on_last_cell():
    reasm = Reassembler()
    cells = _numbered(segment_to_cells(Frame(0, 0, 512)))
    for cell in cells[1:]:  # first cell lost
        result = reasm.push(*cell)
    assert result is None
    assert reasm.discards == 1


def test_mid_loss_discards():
    reasm = Reassembler()
    cells = _numbered(segment_to_cells(Frame(0, 0, 512)))
    for cell in cells[:4] + cells[6:]:
        result = reasm.push(*cell)
    assert result is None
    assert reasm.discards == 1


def test_wire_overhead_ratio_exact():
    assert Fraction(512, cells_for_segment(512) * CELL_WIRE_BYTES) == Fraction(512, 636)


def test_cell_time_rational():
    assert cell_time(RATE) == (662500, 243)
    assert Fraction(*cell_time(RATE)) == Fraction(53 * 8 * 10**9, RATE)


def test_idle_link_arrival_time():
    # one cell time rounds half-up to 2726 ns; LAN propagation adds 5000 ns
    eng = EventQueue()
    arrivals = []
    link = CellLink(eng, RATE, 5_000, lambda cell: arrivals.append(eng.now))
    eng.run_until(1_000)
    link.send_cells(segment_to_cells(Frame(0, 0, 0)))
    eng.run_until(100_000)
    assert eng.pending(CELL_ARRIVAL) == 0
    assert arrivals[0] == 1_000 + 2_726 + 5_000
    assert len(arrivals) == 2


def test_completion_times_accumulate_without_drift():
    clock = CellClock(RATE)
    times = [clock.serve(0)] + [clock.serve() for _ in range(99_999)]
    ct = Fraction(*cell_time(RATE))
    for n in (1, 2, 3, 999, 54_321, 100_000):
        exact = n * ct
        rounded = (exact.numerator + exact.denominator // 2) // exact.denominator
        assert times[n - 1] == rounded
    # spacing never below the rounded single-cell time
    gaps = {b - a for a, b in zip(times, times[1:])}
    assert gaps == {2726, 2727}


def test_back_to_back_cells_spaced_one_cell_time():
    eng = EventQueue()
    arrivals = []
    link = CellLink(eng, RATE, 0, lambda cell: arrivals.append(eng.now))
    link.send_cells(segment_to_cells(Frame(0, 0, 512)))
    eng.run_until(10**9)
    assert len(arrivals) == 12
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(g in (2726, 2727) for g in gaps)


def test_wan_propagation_dominates():
    eng = EventQueue()
    arrivals = []
    link = CellLink(eng, RATE, 5_000_000, lambda cell: arrivals.append(eng.now))
    link.send_cells(segment_to_cells(Frame(0, 0, 0)))
    eng.run_until(10**9)
    assert arrivals[0] == 2726 + 5_000_000


def test_busy_link_serializes_later_offer():
    eng = EventQueue()
    arrivals = []
    link = CellLink(eng, RATE, 0, lambda cell: arrivals.append(eng.now))
    link.send_cells(segment_to_cells(Frame(0, 0, 0)))
    # offered mid-transmission of the first train: must queue behind it
    eng.run_until(1000)
    link.send_cells(segment_to_cells(Frame(0, 0, 0)))
    eng.run_until(10**9)
    assert len(arrivals) == 4
    assert all(b - a >= 2726 for a, b in zip(arrivals, arrivals[1:]))
