"""TCP segments to ATM cell trains and back, plus cell-clocked links.

A TCP segment is its AAL5 Frame, from sender to sink. It carries 56 bytes
of layered overhead (20 TCP + 20 IP + 8 LLC + 8 AAL5 trailer) and pads
into 48-byte cell payloads, so a 512-byte data segment occupies exactly 12
cells of 53 wire bytes each and a bare ack occupies 2. A cell is a
reference to its Frame, not an object of its own. Links never drop cells;
only switch ports do.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .engine import CELL_ARRIVAL, NS_PER_SEC

CELL_WIRE_BYTES = 53
CELL_PAYLOAD_BYTES = 48
FRAME_OVERHEAD_BYTES = 56  # 20 TCP + 20 IP + 8 LLC + 8 AAL5 trailer


def cells_for_segment(payload_len: int) -> int:
    """Number of cells a payload occupies after framing overhead and padding."""
    if payload_len < 0:
        raise ValueError(f"negative payload length {payload_len}")
    total = payload_len + FRAME_OVERHEAD_BYTES
    return (total + CELL_PAYLOAD_BYTES - 1) // CELL_PAYLOAD_BYTES


class Frame:
    """One TCP segment as one AAL5 frame: its VC (the connection), seq,
    ack_no and the index of its last cell, how many of its cells have
    reached the switch port, and whether that port has doomed it. The
    payload length (0 for a pure ack, else the MSS the receiver holds) only
    sizes the cell train. Data and acks are told apart by their path.

    A run moves millions of cells, so a cell is not an object of its own:
    it is a reference to its frame, and its index in the train is implied
    by its position. A frame crosses exactly one switch port over lossless
    FIFO links, so the port numbers the cells as they arrive (arrived is
    the index of the next one) and queues each as the pair frame, index.
    A frame-aware port that drops one of its cells sets doomed, and drops
    the rest of the frame. Frames compare by identity: each transmission
    of a segment, a retransmission included, is a frame of its own.
    """

    __slots__ = ("vc", "seq", "ack_no", "last", "arrived", "doomed")

    def __init__(self, vc: int, seq: int, payload_len: int, ack_no: int = 0) -> None:
        self.vc = vc
        self.seq = seq
        self.ack_no = ack_no
        self.last = cells_for_segment(payload_len) - 1
        self.arrived = 0
        self.doomed = False


def segment_to_cells(frame: Frame) -> list[Frame]:
    """A frame's ordered cell train: one reference to the frame per cell."""
    return [frame] * (frame.last + 1)


class Reassembler:
    """Per-VC frame reassembly for cells arriving in network FIFO order.

    A train completes when its end-of-packet cell arrives with every earlier
    index present; cells are never duplicated in transit, so a simple count
    against the last cell's index suffices. Partial trains (either abandoned
    by a newer frame or truncated at the marker) count as discards.
    """

    __slots__ = ("frame", "count", "discards")

    def __init__(self) -> None:
        self.frame: Frame | None = None
        self.count = 0
        self.discards = 0

    def push(self, frame: Frame, idx: int) -> Frame | None:
        """Feed cell idx of frame; returns the frame once complete, else None."""
        if frame is not self.frame:
            if self.frame is not None:
                self.discards += 1
            self.frame = frame
            self.count = 0
        self.count += 1
        if idx == frame.last:
            complete = self.count == idx + 1
            if not complete:
                self.discards += 1
            self.frame = None
            self.count = 0
            return frame if complete else None
        return None


@cache
def cell_time(rate_bps: int) -> tuple[int, int]:
    """Exact cell transmission time in ns for a link rate, as (num, den).

    Computed once per rate and shared: a run wires 4N + 2 CellClocks, and
    reducing the ratio dominated their construction."""
    return Fraction(CELL_WIRE_BYTES * 8 * NS_PER_SEC, rate_bps).as_integer_ratio()


class CellClock:
    """Service-completion times for back-to-back 53-byte cells.

    The cell time is irrational in integer nanoseconds for the standard
    155.52 Mbps rate (662500/243 ns), so completions accumulate as an exact
    rational within one busy period and round half-up only at event
    boundaries. A multi-million-cell busy period has zero cumulative drift.

    serve(start) opens a fresh busy period at start and returns its first
    completion; serve() returns the next completion in the current period.
    When a period is fresh is the caller's rule, not the clock's.
    """

    __slots__ = ("num", "den", "half", "base", "count")

    def __init__(self, rate_bps: int) -> None:
        self.num, self.den = cell_time(rate_bps)
        self.half = self.den // 2
        self.base = 0
        self.count = 0

    def serve(self, start: int | None = None) -> int:
        """Completion of the next cell, opening a busy period at start if given."""
        if start is None:
            self.count += 1
        else:
            self.base = start
            self.count = 1
        return self.base + (self.count * self.num + self.half) // self.den


class CellLink:
    """One direction of a point-to-point link: serializer plus fixed delay.

    Cells handed in FIFO order are clocked out at line rate and arrive at
    the far end one propagation delay after their transmission completes.
    Cells offered while the serializer is busy (before idle_at, the last
    completion) join its busy period; otherwise they open a fresh one.
    """

    __slots__ = ("engine", "clock", "prop_ns", "sink", "idle_at")

    def __init__(self, engine, rate_bps: int, prop_ns: int, sink) -> None:
        self.engine = engine
        self.clock = CellClock(rate_bps)
        self.prop_ns = prop_ns
        self.sink = sink
        self.idle_at = 0

    def send_cells(self, cells: list[Frame]) -> None:
        """Clock out cells, each a reference to its Frame, from the engine's
        now on; each reaches sink(frame) at the far end."""
        now = self.engine.now
        schedule = self.engine.schedule
        serve = self.clock.serve
        prop = self.prop_ns
        sink = self.sink
        start = now if now >= self.idle_at else None
        for frame in cells:
            done = serve(start)
            start = None
            schedule(done + prop, CELL_ARRIVAL, sink, frame)
        self.idle_at = done
