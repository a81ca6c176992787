"""Output-buffered switch ports with the four UBR+ drop policies, and the
serializer hops that stand in for uncontended per-VC output legs.

The four policies share one rule. A cell that finds the buffer full
(X >= K) is dropped. Otherwise only a frame's first cell is tested, and
only while occupancy exceeds the threshold (X > R): EPD drops it outright,
Selective Drop when its VC's load ratio Y_i*N_a/X exceeds the cutoff Z, and
FBA when that ratio exceeds Z*(K-R)/(X-R). Under the frame-aware policies
(all but tail drop) a dropped cell also dooms the rest of its frame.

Every test runs in exact integer arithmetic: Z is kept as a rational, the
load-ratio comparisons are cross-multiplied, and an unbounded K, like tail
drop's missing R, is a large integer, so no float ever enters a drop
decision.
"""

from __future__ import annotations

import sys
from collections import deque
from enum import IntEnum
from fractions import Fraction

from .engine import CELL_ARRIVAL, CELL_DEPARTURE, InvariantError
from .aal5 import CellClock, Frame, Reassembler


class Policy(IntEnum):
    TAIL_DROP = 0
    EPD = 1
    SELECTIVE_DROP = 2
    FBA = 3


class DropReason(IntEnum):
    NONE = 0  # admitted
    BUFFER_FULL = 1
    EPD_THRESHOLD = 2
    LOAD_RATIO = 3
    CONTINUED_PACKET_DISCARD = 4


_ADMITTED = DropReason.NONE  # a global is cheaper to read than an enum member
UNBOUNDED = sys.maxsize  # the integer K of an unbounded buffer


class OutputPort:
    """FIFO cell queue with a line-rate transmitter.

    on_cell_arrival applies the drop rule (see the module docstring) inline
    for every policy and returns its verdict as a DropReason, NONE for an
    admitted cell. Tail drop takes R = K, so its threshold test never runs.
    R and Z come resolved and checked by build_scenario. The transmitter is
    busy exactly while X > 0: the cell that makes X = 1 starts service.

    Only Selective Drop and FBA read per-VC occupancy, so only their ports
    keep y, each Y_i counted as cells are queued and served (None under tail
    drop and EPD); N_a is counted from y at a load-ratio decision. check(),
    called at the end of every run, recounts Y_i from the queue. An admitted
    cell past its frame's last raises: a frame crosses one port only once.
    For the same reason a frame-aware port marks a frame it drops a cell of
    as doomed on the frame itself (see aal5.Frame), and drops every later
    cell of a doomed frame with CONTINUED_PACKET_DISCARD.

    A cell arrives as a reference to its Frame (see aal5.Frame). The port
    numbers a frame's cells from the frame's arrival counter, and queues
    each accepted cell as two entries, the frame and its index, so queueing
    a cell allocates nothing.

    Next-hop contract: next_hop holds one callable per VC, so its length is
    the port's VC count. When a cell finishes transmission, the port calls
    next_hop[vc](frame, idx) at that instant, before it starts serving the
    next cell, and counts the call in cells_out, from which Simulation
    takes the cells a run delivers. The port itself has no propagation
    delay; the next hop owns the link that leaves the port and schedules
    whatever the cell does next.
    """

    def __init__(
        self,
        engine,
        name: str,
        capacity: int | None,
        policy: Policy,
        r_cells: int | None,
        z: Fraction | None,
        rate_bps: int,
        next_hop: list,
    ) -> None:
        n_vcs = len(next_hop)
        self.engine = engine
        self.name = name
        self.k = UNBOUNDED if capacity is None else capacity
        self.policy = policy
        self.frame_aware = policy is not Policy.TAIL_DROP
        self.r = r_cells if self.frame_aware else self.k
        self.z_num, self.z_den = (z or 1).as_integer_ratio()
        self.queue: deque = deque()  # frame, idx, frame, idx, ...
        self.x = 0
        self.y = [0] * n_vcs if policy in (Policy.SELECTIVE_DROP, Policy.FBA) else None
        self.clock = CellClock(rate_bps)
        self.next_hop = list(next_hop)
        # statistics
        self.max_x = 0
        self.drops_by_reason = [0] * len(DropReason)
        self.drops_by_vc = [0] * n_vcs
        self.cells_out = 0  # cells handed to next_hop

    def on_cell_arrival(self, frame: Frame) -> DropReason:
        idx = frame.arrived
        frame.arrived = idx + 1
        vc = frame.vc
        x = self.x
        reason = _ADMITTED
        if frame.doomed:
            reason = DropReason.CONTINUED_PACKET_DISCARD
        elif x >= self.k:
            reason = DropReason.BUFFER_FULL
        elif not idx and x > self.r:
            if self.policy is Policy.EPD:
                reason = DropReason.EPD_THRESHOLD
            else:
                # Y_i*N_a/X > Z, cross-multiplied; FBA scales Z by
                # (K-R)/(X-R), where X > R makes X - R at least 1.
                y = self.y
                share = y[vc] * (len(y) - y.count(0)) * self.z_den
                cutoff = self.z_num * x
                if self.policy is Policy.FBA:
                    share *= x - self.r
                    cutoff *= self.k - self.r
                if share > cutoff:
                    reason = DropReason.LOAD_RATIO
        if reason:
            self.drops_by_reason[reason] += 1
            self.drops_by_vc[vc] += 1
            if self.frame_aware:
                frame.doomed = True  # the rest of this frame is dropped too
        else:
            if idx > frame.last:
                raise InvariantError(
                    f"{self.name}: cell {idx} of a {frame.last + 1}-cell frame arrived; "
                    f"a frame must cross one port only once"
                )
            queue = self.queue
            queue.append(frame)
            queue.append(idx)
            x += 1
            self.x = x
            if x > self.max_x:
                self.max_x = x
            if self.y is not None:
                self.y[vc] += 1
            if x == 1:  # the port was idle: start serving this cell
                engine = self.engine
                engine.schedule(
                    self.clock.serve(engine.now), CELL_DEPARTURE, self._on_service_done, None,
                )
        return reason

    def _on_service_done(self, _arg) -> None:
        queue = self.queue
        frame = queue.popleft()
        idx = queue.popleft()
        x = self.x - 1
        self.x = x
        vc = frame.vc
        if self.y is not None:
            self.y[vc] -= 1
        self.cells_out += 1
        self.next_hop[vc](frame, idx)
        if x:
            self.engine.schedule(
                self.clock.serve(), CELL_DEPARTURE, self._on_service_done, None,
            )

    def check(self) -> None:
        """Raise InvariantError unless 2X = len(queue), 0 <= X <= K and, on a
        port that keeps Y_i, each Y_i counts the queued cells of VC i."""
        x = self.x
        if 2 * x != len(self.queue):
            raise InvariantError(
                f"{self.name}: X={x} but queue holds {len(self.queue)} entries, not {2 * x}"
            )
        if not 0 <= x <= self.k:
            raise InvariantError(f"{self.name}: X={x} outside [0, {self.k}]")
        y = self.y
        if y is not None:
            queued = [0] * len(y)
            for frame in list(self.queue)[::2]:
                queued[frame.vc] += 1
            if queued != y:
                raise InvariantError(f"{self.name}: Y_i={y} but queued cells per VC are {queued}")

    def drops_total(self) -> int:
        return sum(self.drops_by_reason)


class SerializerHop:
    """One VC's uncontended output leg and its host's AAL5 reassembly,
    folded into the upstream departure.

    Stands for a link of delay prop_ns into a switch, a FIFO port that only
    this VC uses, a second link of delay prop_ns out to a host, and the
    host's reassembly of the cells into frames. Fed at line rate by one
    same-rate upstream port, such a port never holds more than two cells and
    never drops, so it needs no queue and no departure event: the upstream
    port calls on_cell(frame, idx) when it finishes cell idx of frame, and
    the hop works out the cell's arrival time t = now + prop_ns, its
    completion time on this hop's CellClock and its host arrival time
    completion + prop_ns, and pushes the pair into the hop's Reassembler.
    Cells reach the host in the order they reach the hop, so reassembly
    gives the same frames whenever it runs. Only when a
    push completes a frame does the hop schedule an event: one CELL_ARRIVAL
    at sink, at the last cell's host arrival, whose payload is the frame
    itself. A cell that completes nothing schedules nothing.

    Tie rule: a cell arriving at t joins the current busy period if t is
    before the completion of the last cell, and also when t equals it if
    prop_ns is at least one cell time; otherwise it starts a fresh period.
    It copies the order in which the engine dispatched the two equal-time
    events when the leg was a queued port: the arrival was scheduled prop_ns
    before t, the departure one rounded cell time (2726 or 2727 ns at
    155.52 Mbps) before it, and the earlier schedule fires first. Where
    both fall on the same instant the rule was checked against the queued
    port, bit for bit, with link delays of 2726 and 2727 ns. The cell time
    is compared as an exact rational: prop_ns * den >= num.

    The frame is scheduled as of the last cell's completion time, which is
    when the queued leg's departure event would have scheduled the cell's
    host arrival. So it keeps that event's place among equal-time events
    (see EventQueue.schedule_as_of).

    The hop counts at its run's horizon end. Its host arrival times never
    decrease, so once a cell reaches the host after end, every later cell
    does too: such a cell is counted in late and neither reassembled nor
    scheduled, and every frame the hop schedules fires within the run.
    The hop keeps no count of the cells handed to it: its upstream port's
    cells_out less its hops' late cells is the count reaching the hosts by
    end, and reasm.discards counts the discards those cells made.

    One deque, done, holds the completion times of the cells in the port,
    so its length is the occupancy x an arrival finds. Each arrival at t
    first drops the cells completing before t + edge: they have left the
    port. Completion times only grow, so done is sorted and the cells that
    have left are at its front; arrival times never decrease, so a cell
    gone before one arrival is gone before every later one. peak is the
    most cells any arrival up to end found, plus itself: the peak the
    replaced port would have reported. Should an arrival find as many
    cells as would have let that port's policy drop one (capacity, or
    min(capacity, R + 1) where a threshold R is set, as by every
    frame-aware policy), the hop raises InvariantError rather than let the
    result drift from the queued model.
    """

    __slots__ = (
        "engine", "name", "clock", "prop_ns", "sink", "end", "limit", "edge", "done", "reasm",
        "late", "peak",
    )

    def __init__(
        self,
        engine,
        name: str,
        capacity: int | None,
        r_cells: int | None,
        rate_bps: int,
        prop_ns: int,
        sink,
        end: int,
    ) -> None:
        self.engine = engine
        self.name = name
        self.clock = clock = CellClock(rate_bps)
        self.prop_ns = prop_ns
        self.sink = sink
        self.end = end
        limit = UNBOUNDED if capacity is None else capacity
        self.limit = limit if r_cells is None else min(limit, r_cells + 1)
        # Cells completing before arrival time + edge have left the port:
        # edge 0 keeps one completing exactly at the arrival (tie joins).
        self.edge = 0 if prop_ns * clock.den >= clock.num else 1
        self.done: deque = deque()  # completion times of the cells in the port
        self.reasm = Reassembler()
        self.late = 0  # cells reaching the host after end
        self.peak = 0

    def on_cell(self, frame: Frame, idx: int) -> None:
        engine = self.engine
        now = engine.now
        prop = self.prop_ns
        t = now + prop
        done = self.done
        left = t + self.edge
        while done and done[0] < left:
            done.popleft()
        x = len(done)
        if x >= self.limit:
            raise InvariantError(
                f"{self.name}: a cell found {x} cells queued at t={t} ns, where the "
                f"port's policy could drop it"
            )
        if x >= self.peak and t <= self.end:
            self.peak = x + 1
        completion = self.clock.serve(None if x else t)
        done.append(completion)
        landed = completion + prop
        if landed > self.end:
            self.late += 1
            return
        if self.reasm.push(frame, idx) is not None:
            engine.schedule_as_of(completion, landed, CELL_ARRIVAL, self.sink, frame)
