"""Wires one scenario into a live object graph and runs it to completion.

Topology (fixed): N source hosts -> switch A -> bottleneck link -> switch B
-> N destination hosts, with acks riding the reverse path through the same
switches. Each run owns all of its state and is single-threaded; the sweep
runner executes independent runs in separate processes.

Only the two shared ports queue: A.fwd (data onto the bottleneck) and B.rev
(acks back). The per-host legs behind them, B.dst<i> to destination i and
A.src<i> to source i, each carry one VC fed at line rate by one same-rate
port, so each is a switches.SerializerHop, not a queue. Both directions are
wired the same way: a link per connection into the shared port, and a leg
per connection out of it to the host. The hop docstring says how it times
cells, finds its occupancy, breaks ties, delivers whole frames to the host
and counts cells at the horizon, all as a queued leg with per-cell delivery
would. That is two engine events per data cell (link arrival, bottleneck
departure) plus one per frame. RunResult reports each leg under its name,
with its peak occupancy and zero drops.

Every run checks itself, raising InvariantError: a port rejects a frame
crossing it twice, a hop a queue its policy could have dropped from, a
sender a post-timeout emission not at snd_una, and the run ends by checking
each port's accounting and cell conservation.
"""

from __future__ import annotations

from .aal5 import CellLink, Frame, segment_to_cells
from .engine import APP_SEND, CELL_ARRIVAL, TIMER_TICK, EventQueue, InvariantError
from .metrics import RunResult
from .scenario import Scenario
from .switches import DropReason, OutputPort, SerializerHop
from .tcp import TcpReceiver, TcpSender


class Simulation:
    """One fully wired run. Build, call run(), read the RunResult."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.engine = EventQueue()
        n = scenario.n_sources
        rate = scenario.link_rate_bps
        prop = scenario.link_delay_ns
        end = scenario.duration_ns

        self.cells_injected = 0

        self.senders = [
            TcpSender(
                i,
                mss=scenario.mss,
                rcvwnd=scenario.rcvwnd,
                initial_ssthresh=scenario.initial_ssthresh,
                rto_initial=scenario.rto_initial_ticks,
                rto_max=scenario.rto_max_ticks,
                tick_ns=scenario.tick_ns,
            )
            for i in range(n)
        ]
        self.receivers = [TcpReceiver(scenario.mss) for _ in range(n)]

        eng = self.engine

        def path(port_name, hop_prefix, capacity, r_cells, host):
            """One direction: a link per connection into the shared port,
            and a leg per connection from that port to its host."""
            hops = [
                SerializerHop(eng, f"{hop_prefix}{i}", capacity, r_cells, rate, prop, host, end)
                for i in range(n)
            ]
            port = OutputPort(eng, port_name, capacity, scenario.policy, r_cells, scenario.z, rate,
                              [h.on_cell for h in hops])
            links = [CellLink(eng, rate, prop, port.on_cell_arrival) for _ in range(n)]
            return links, port, hops

        # Data: source i -> A.fwd -> bottleneck -> B.dst<i> -> destination i.
        self.data_links, self.a_fwd_port, self.b_dst_hops = path(
            "A.fwd", "B.dst", scenario.buffer_cells, scenario.r_cells, self._on_data)
        # Acks: destination i -> B.rev -> reverse link -> A.src<i> -> source i.
        self.ack_links, b_rev, self.a_src_hops = path(
            "B.rev", "A.src", scenario.reverse_buffer_cells, scenario.reverse_r_cells,
            self._on_ack)
        self.ports = [self.a_fwd_port, b_rev]

    def emit_segments(self, frames, link: CellLink) -> None:
        for frame in frames:
            cells = segment_to_cells(frame)
            self.cells_injected += len(cells)
            link.send_cells(cells)

    def _on_data(self, frame: Frame) -> None:
        """A whole data frame reaches its destination host: ack it."""
        conn = frame.vc
        ack_no = self.receivers[conn].on_segment(frame.seq)
        self.emit_segments((Frame(conn, 0, 0, ack_no),), self.ack_links[conn])

    def _on_ack(self, frame: Frame) -> None:
        """A whole ack frame reaches its source host."""
        conn = frame.vc
        if self.senders[conn].on_ack(frame.ack_no, self.engine.now):
            self._send(conn)

    def _on_tick(self, _arg) -> None:
        eng = self.engine
        for i, sender in enumerate(self.senders):
            if sender.on_tick(eng.now):
                self._send(i)
        eng.schedule(eng.now + self.scenario.tick_ns, TIMER_TICK, self._on_tick, None)

    def _send(self, conn: int) -> None:
        """Let conn's sender emit what its window allows. This is the one point
        where a sender acts (first send, ack, timer tick); cli.CwndTrace
        extends it to record the cwnd."""
        out = self.senders[conn].try_send(self.engine.now)
        if out:
            self.emit_segments(out, self.data_links[conn])

    def run(self) -> RunResult:
        eng = self.engine
        for i in range(self.scenario.n_sources):
            eng.schedule(0, APP_SEND, self._send, i)
        eng.schedule(self.scenario.tick_ns, TIMER_TICK, self._on_tick, None)
        eng.run_until(self.scenario.duration_ns)
        return self._collect()

    def _collect(self) -> RunResult:
        for port in self.ports:
            port.check()
        scn = self.scenario
        delivered_bytes = tuple(r.rcv_nxt for r in self.receivers)
        hops = self.b_dst_hops + self.a_src_hops
        max_queue_by_port = {p.name: p.max_x for p in self.ports}
        max_queue_by_port.update((h.name, h.peak) for h in hops)
        drops_by_port = {p.name: p.drops_total() for p in self.ports}
        drops_by_port.update((h.name, 0) for h in hops)
        # Ports count by DropReason index and VC; NONE, an admitted cell, stays 0.
        by_reason = zip(DropReason, map(sum, zip(*(p.drops_by_reason for p in self.ports))))
        drops_by_reason = {reason.name: total for reason, total in by_reason if total}
        drops_by_vc = tuple(map(sum, zip(*(p.drops_by_vc for p in self.ports))))
        dropped = sum(drops_by_port.values())
        # Every frame a hop schedules fires within the run, so a CELL_ARRIVAL
        # still pending at the end is always a cell on a link into a port.
        on_links = self.engine.pending(CELL_ARRIVAL)
        late = sum(h.late for h in hops)
        residual = sum(p.x for p in self.ports) + on_links + late
        result = RunResult.from_counters(
            per_conn_delivered_bytes=delivered_bytes,
            duration_s=scn.duration_s,
            link_rate_bps=scn.link_rate_bps,
            mss=scn.mss,
            max_queue_cells=self.a_fwd_port.max_x,
            max_queue_by_port=max_queue_by_port,
            drops_by_reason=drops_by_reason,
            drops_by_port=drops_by_port,
            drops_by_vc=drops_by_vc,
            reassembly_discards=sum(h.reasm.discards for h in hops),
            retransmitted_segments=sum(s.retransmits for s in self.senders),
            timeouts=sum(s.timeouts for s in self.senders),
            cells_injected=self.cells_injected,
            cells_delivered=sum(p.cells_out for p in self.ports) - late,
            cells_dropped=dropped,
            cells_residual=residual,
        )
        if not result.cells_conserved():
            raise InvariantError(
                f"cell conservation broke: injected {result.cells_injected} != "
                f"delivered {result.cells_delivered} + dropped {result.cells_dropped} "
                f"+ resident {result.cells_residual}"
            )
        return result


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute one scenario deterministically and return its RunResult."""
    return Simulation(scenario).run()
