"""Wires one scenario into a live object graph and runs it to completion.

Topology (fixed): N source hosts -> switch A -> bottleneck link -> switch B
-> N destination hosts, with acks riding the reverse path through the same
switches. Each run owns all of its state and is single-threaded; the sweep
runner executes independent runs in separate processes.

Only the two shared ports queue: A.fwd (data onto the bottleneck) and B.rev
(acks back). The per-host legs behind them, B.dst<i> to destination i and
A.src<i> to source i, each carry one VC fed at line rate by one same-rate
port, so they hold at most two cells and never drop (a hop raises
InvariantError rather than diverge if one could). Each is a SerializerHop,
not a queue: the upstream departure hands the cell straight to the hop,
which computes its arrival, completion and host arrival times and
reassembles it into its AAL5 frame on the spot. A host acts only on whole
frames, so the hop schedules one CELL_ARRIVAL at the host per complete
frame, carrying its Segment, and none for the other cells. That is two
engine events per data cell (link arrival, bottleneck departure) plus one
per frame.

Results are identical to queued legs with per-cell delivery. Completion
times come from the same CellClock arithmetic. A cell arriving exactly as
the leg's last cell completes joins that busy period only if the link delay
is at least one cell time (prop * den >= num, exact), which is the order the
engine gave those two equal-time events when the leg was queued. A frame is
delivered at its last cell's host arrival, scheduled as of the instant the
leg's departure event would have scheduled that cell, so it keeps its place
among equal-time events; the cells that completed no frame scheduled nothing
there. RunResult still reports each leg's peak occupancy, and its zero drops,
under the leg's name, and the hops count delivered, discarded and in-flight
cells as of the horizon, as per-cell delivery did.
"""

from __future__ import annotations

from .aal5 import CellLink, Segment, segment_to_cells
from .engine import APP_SEND, CELL_ARRIVAL, TIMER_TICK, EventQueue, NS_PER_SEC
from .metrics import RunResult
from .scenario import Scenario
from .switches import DropReason, InvariantError, OutputPort, SerializerHop
from .tcp import TcpReceiver, TcpSender


class _DestEndpoint:
    """Destination host glue: the TCP receiver and its ack path."""

    __slots__ = ("sim", "conn", "receiver", "ack_link")

    def __init__(self, sim, conn: int, mss: int) -> None:
        self.sim = sim
        self.conn = conn
        self.receiver = TcpReceiver(mss)
        self.ack_link: CellLink | None = None

    def on_frame(self, seg: Segment) -> None:
        ack_no = self.receiver.on_segment(seg.seq, seg.payload_len)
        self.sim.emit_segments((Segment(self.conn, True, 0, 0, ack_no),), self.ack_link)


class _SrcEndpoint:
    """Source host glue: the TCP sender and its data path."""

    __slots__ = ("sim", "conn", "sender", "data_link")

    def __init__(self, sim, conn: int, sender: TcpSender) -> None:
        self.sim = sim
        self.conn = conn
        self.sender = sender
        self.data_link: CellLink | None = None

    def on_frame(self, seg: Segment) -> None:
        sim = self.sim
        sender = self.sender
        now = sim.engine.now
        tick_ns = sim.tick_ns
        now_tick = now // tick_ns
        # A timer (re)started mid-interval begins counting at the next
        # boundary; the coarse clock cannot observe sub-tick arming.
        arm_tick = (now + tick_ns - 1) // tick_ns
        if sender.on_ack(seg.ack_no, now_tick, arm_tick):
            out = sender.try_send(now_tick, arm_tick)
            if out:
                sim.emit_segments(out, self.data_link)
        if sim.cwnd_traces is not None:
            sim.record_cwnd(self.conn)


class Simulation:
    """One fully wired run. Build, call run(), read the RunResult."""

    def __init__(
        self,
        scenario: Scenario,
        audit: bool = False,
        collect_cwnd: bool = False,
    ) -> None:
        self.scenario = scenario
        self.engine = EventQueue()
        self.tick_ns = scenario.tick_ns
        self.audit = audit
        n = scenario.n_sources
        rate = scenario.link_rate_bps
        prop = scenario.link_delay_ns
        fwd_cap = scenario.buffer_cells
        rev_cap = scenario.reverse_buffer_cells
        fwd_cfg = scenario.policy_config(fwd_cap)
        rev_cfg = scenario.policy_config(rev_cap)

        self.cells_injected = 0
        self._packet_seq = 0

        self.senders = [
            TcpSender(
                i,
                mss=scenario.mss,
                rcvwnd=scenario.rcvwnd,
                initial_ssthresh=scenario.initial_ssthresh,
                rto_initial=scenario.rto_initial_ticks,
                rto_max=scenario.rto_max_ticks,
            )
            for i in range(n)
        ]
        self.dests = [_DestEndpoint(self, i, scenario.mss) for i in range(n)]
        self.srcs = [_SrcEndpoint(self, i, self.senders[i]) for i in range(n)]

        eng = self.engine
        # Switch B fan-out: one leg per destination host, over the bottleneck.
        self.b_dst_hops = [
            SerializerHop(eng, f"B.dst{i}", fwd_cap, fwd_cfg, rate, prop, self.dests[i].on_frame)
            for i in range(n)
        ]
        # Switch A fan-out: one ack leg per source host, over the reverse link.
        self.a_src_hops = [
            SerializerHop(eng, f"A.src{i}", rev_cap, rev_cfg, rate, prop, self.srcs[i].on_frame)
            for i in range(n)
        ]
        self.a_fwd_port = OutputPort(
            eng, "A.fwd", n, fwd_cap, fwd_cfg, rate,
            [h.on_cell for h in self.b_dst_hops], audit,
        )
        self.b_rev_port = OutputPort(
            eng, "B.rev", n, rev_cap, rev_cfg, rate,
            [h.on_cell for h in self.a_src_hops], audit,
        )
        self.ports = [self.a_fwd_port, self.b_rev_port]

        for i in range(n):
            self.srcs[i].data_link = CellLink(eng, rate, prop, self.a_fwd_port.on_cell_arrival)
            self.dests[i].ack_link = CellLink(eng, rate, prop, self.b_rev_port.on_cell_arrival)

        self.cwnd_traces: list[list[tuple[int, int]]] | None = (
            [[] for _ in range(n)] if collect_cwnd else None
        )

    def emit_segments(self, segments, link: CellLink) -> None:
        cells = []
        pid = self._packet_seq
        for seg in segments:
            cells.extend(segment_to_cells(seg, pid))
            pid += 1
        self._packet_seq = pid
        self.cells_injected += len(cells)
        link.send_cells(cells, self.engine.now)

    def record_cwnd(self, conn: int) -> None:
        cwnd = self.senders[conn].cwnd
        trace = self.cwnd_traces[conn]
        if not trace or trace[-1][1] != cwnd:
            trace.append((self.engine.now, cwnd))

    def _on_tick(self, _arg) -> None:
        eng = self.engine
        now_tick = eng.now // self.tick_ns
        for i, sender in enumerate(self.senders):
            if sender.on_tick(now_tick):
                out = sender.try_send(now_tick)
                if out:
                    self.emit_segments(out, self.srcs[i].data_link)
                if self.cwnd_traces is not None:
                    self.record_cwnd(i)
        eng.schedule(eng.now + self.tick_ns, TIMER_TICK, self._on_tick, None)

    def _start_source(self, conn: int) -> None:
        out = self.senders[conn].try_send(0)
        if out:
            self.emit_segments(out, self.srcs[conn].data_link)
        if self.cwnd_traces is not None:
            self.record_cwnd(conn)

    def run(self) -> RunResult:
        eng = self.engine
        for i in range(self.scenario.n_sources):
            eng.schedule(0, APP_SEND, self._start_source, i)
        eng.schedule(self.tick_ns, TIMER_TICK, self._on_tick, None)
        eng.run_until(self.scenario.duration_ns)
        return self._collect()

    def _collect(self) -> RunResult:
        scn = self.scenario
        n = scn.n_sources
        delivered_bytes = tuple(d.receiver.rcv_nxt for d in self.dests)
        hops = self.b_dst_hops + self.a_src_hops
        end = self.engine.now
        max_queue_by_port = {p.name: p.max_x for p in self.ports}
        max_queue_by_port.update((h.name, h.peak(end)) for h in hops)
        drops_by_port = {p.name: p.drops_total() for p in self.ports}
        drops_by_port.update((h.name, 0) for h in hops)
        drops_by_reason: dict[str, int] = {}
        for reason in DropReason:
            if reason is DropReason.NONE:
                continue
            total = sum(p.drops_by_reason[reason] for p in self.ports)
            if total:
                drops_by_reason[reason.name] = total
        drops_by_vc = [0] * n
        for p in self.ports:
            for vc in range(n):
                drops_by_vc[vc] += p.drops_by_vc[vc]
        discards = sum(h.discards(end) for h in hops)
        dropped = sum(drops_by_port.values())
        in_hops = sum(h.in_flight(end) for h in hops)
        # Pending CELL_ARRIVALs are cells on the links into the ports, plus
        # one whole-frame delivery per frame a hop has scheduled at a host.
        on_links = self.engine.pending(CELL_ARRIVAL) - sum(h.frames_pending(end) for h in hops)
        residual = sum(p.x for p in self.ports) + on_links + in_hops
        result = RunResult.from_counters(
            per_conn_delivered_bytes=delivered_bytes,
            duration_s=scn.duration_ns / NS_PER_SEC,
            link_rate_bps=scn.link_rate_bps,
            mss=scn.mss,
            max_queue_cells=self.a_fwd_port.max_x,
            max_queue_by_port=max_queue_by_port,
            drops_by_reason=drops_by_reason,
            drops_by_port=drops_by_port,
            drops_by_vc=tuple(drops_by_vc),
            reassembly_discards=discards,
            retransmitted_segments=sum(s.retransmits for s in self.senders),
            timeouts=sum(s.timeouts for s in self.senders),
            cells_injected=self.cells_injected,
            cells_delivered=sum(h.delivered(end) for h in hops),
            cells_dropped=dropped,
            cells_residual=residual,
        )
        if not result.cells_conserved():
            raise InvariantError(
                f"cell conservation broke: injected {result.cells_injected} != "
                f"delivered {result.cells_delivered} + dropped {result.cells_dropped} "
                f"+ resident {result.cells_residual}"
            )
        for sender in self.senders:
            for seq, una in sender.goback_checks:
                if seq != una:
                    raise InvariantError(
                        f"conn {sender.conn_id}: first post-timeout emission at seq "
                        f"{seq}, expected snd_una {una}"
                    )
        return result


def run_scenario(scenario: Scenario, audit: bool = False) -> RunResult:
    """Execute one scenario deterministically and return its RunResult."""
    return Simulation(scenario, audit=audit).run()
