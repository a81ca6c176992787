"""Per-layer tracing of ubrsim, done from outside the package.

The tracer replaces layer functions on their classes and modules while it
is installed, and restores them afterwards; nothing inside src/ubrsim
changes. Functions bound into other objects when a Simulation is wired
(OutputPort.on_cell_arrival in the sink tables, segment_to_cells imported
into ubrsim.sim) are replaced where they are looked up, so install the
tracer before the Simulation is built.

Per-cell calls get counts and summed self time, not spans: a run makes
millions of them. A frame's self time is its duration minus its timed
children. Each wrapper kind's own cost is measured on a no-op
(_calibrate) each time the tracer is installed, both the part its parent
sees and the part inside its own interval, and taken off both, so that no
layer is billed for the tracer. Every scheduled callback is routed through a timed
dispatch frame, so EventQueue.run_until's self time is the engine's own
dispatch loop whatever the callbacks are. Spans are kept only for rounds
and phases (parse, wire, run, collect, emit). Everything stays in memory
until the caller writes it out.
"""

from __future__ import annotations

import operator
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from functools import partial

import ubrsim.sim
from ubrsim.aal5 import CellLink, Reassembler
from ubrsim.engine import CELL_ARRIVAL, CELL_DEPARTURE, TIMER_TICK, EventQueue
from ubrsim.sim import Simulation
from ubrsim.switches import OutputPort
from ubrsim.tcp import TcpReceiver, TcpSender

FANOUT_PREFIXES = ("B.dst", "A.src")

# (owner, attribute, frame name, count the items it returns)
TIMED = (
    (OutputPort, "on_cell_arrival", "switches.arrival", False),
    (OutputPort, "_on_service_done", "switches.departure", False),
    (ubrsim.sim, "segment_to_cells", "aal5.frame", True),
    (CellLink, "send_cells", "aal5.link", False),
    (Reassembler, "push", "aal5.reassembly", False),
    (TcpSender, "on_ack", "tcp.on_ack", False),
    (TcpSender, "try_send", "tcp.try_send", True),
    (TcpReceiver, "on_segment", "tcp.receiver", False),
    (Simulation, "emit_segments", "sim.emit", False),
)


def _noop(*_args):
    return None


class Tracer:
    """Counts, self times and spans, one traced round at a time."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._stack = [0.0]  # child time of each open frame; [0] is the root
        self.frames: dict[str, list] = {}  # name -> [calls, self_s, items]
        self.scheduled: Counter = Counter()  # events scheduled, by kind
        self._sched = [0, 0, 0]  # scheduled total, baseline, pending peak
        free = (0.0, 0.0)
        self.overhead = {"call": free, "dispatch": free, "schedule": free}
        self.reset()

    def reset(self) -> None:
        """Zero the counters; spans are kept, and those recorded from here
        on belong to the next round."""
        self.first_span = len(self.spans)
        for acc in self.frames.values():
            acc[:] = [0, 0.0, 0]
        self.scheduled.clear()
        self._sched[:] = [0, 0, 0]
        del self._stack[1:]
        self._stack[0] = 0.0

    def calls(self, name: str) -> int:
        return self.frames.get(name, (0,))[0]

    def self_s(self, name: str) -> float:
        return self.frames.get(name, (0, 0.0))[1]

    def items(self, name: str) -> int:
        return self.frames.get(name, (0, 0.0, 0))[2]

    @property
    def pending_peak(self) -> int:
        return self._sched[2]

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": sid, "parent": parent, "name": name,
                  "start": self.clock() - self.origin, "end": None}
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = self.clock() - self.origin

    def timed(self, name: str, fn, count_items: bool = False, overhead=None):
        """Wrap fn to count calls and sum self time under name.

        overhead is (cost the parent sees, cost inside the frame) per call.
        """
        clock = self.clock
        stack = self._stack
        push = stack.append
        pop = stack.pop
        acc = self.frames.setdefault(name, [0, 0.0, 0])
        outer, inner = self.overhead["call"] if overhead is None else overhead

        def wrapper(*args):
            push(0.0)
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                dt = clock() - t0
                acc[1] += dt - pop() - inner
                acc[0] += 1
                stack[-1] += dt + outer
            if count_items:
                acc[2] += len(out)
            return out

        return wrapper

    def _dispatcher(self, overhead):
        """A timed frame around one dispatched callback, bound per event."""
        return self.timed("engine.dispatch", operator.call, overhead=overhead)

    def _scheduler(self, original, dispatch, overhead):
        """EventQueue.schedule that counts events by kind, tracks how many
        are pending, and routes the callback through the dispatch frame."""
        timed_schedule = self.timed("engine.schedule", original, overhead=overhead)
        scheduled = self.scheduled
        state = self._sched
        dispatched = self.frames["engine.dispatch"]

        def schedule(engine, fire_time, kind, callback, payload=None):
            scheduled[kind] += 1
            state[0] += 1
            live = state[0] - dispatched[0] - state[1]
            if live > state[2]:
                state[2] = live
            return timed_schedule(engine, fire_time, kind, partial(dispatch, callback), payload)

        return schedule

    def _run_until(self, original):
        state = self._sched
        dispatched = self.frames["engine.dispatch"]

        def run_until(engine, end):
            try:
                return original(engine, end)
            finally:
                # What this engine leaves pending is not pending in the next.
                state[1] = state[0] - dispatched[0]

        return run_until

    def _cost(self, wrapped, plain, args, n: int = 20000, trials: int = 9):
        """Per-call cost of a wrapper around a no-op: (time its parent sees
        beyond a plain call, time inside its own frame).

        The first is a difference of two loops, so noise in either moves it
        both ways and the median is taken; the second is timed directly, so
        noise only adds and the minimum is taken.
        """
        clock = self.clock
        stack = self._stack
        outside, inside = [], []
        for _ in range(trials):
            stack.append(0.0)
            t0 = clock()
            for _ in range(n):
                wrapped(*args)
            outer = clock() - t0
            inner = stack.pop()
            t0 = clock()
            for _ in range(n):
                plain(*args)
            base = clock() - t0
            outside.append((outer - inner - base) / n)
            inside.append(inner / n)
        return max(statistics.median(outside), 0.0), min(inside)

    def _calibrate(self) -> None:
        """Measure each wrapper kind with nothing charged, then keep the
        costs. Done at each install, so the costs follow the machine's
        current speed."""
        free = (0.0, 0.0)
        call = self._cost(self.timed("calibrate", _noop, overhead=free), _noop, (None,))
        dispatch = self._dispatcher(free)
        dispatch_cost = self._cost(partial(dispatch, _noop), _noop, (None,))
        schedule = self._scheduler(_noop, dispatch, free)
        schedule_cost = self._cost(schedule, _noop, (None, 0, 1, _noop, None))
        self.overhead = {"call": call, "dispatch": dispatch_cost, "schedule": schedule_cost}
        del self.frames["calibrate"]

    @contextmanager
    def installed(self):
        """Replace the layer functions for the duration of the block."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        self._calibrate()
        self.reset()
        try:
            for owner, attr, name, count_items in TIMED:
                patch(owner, attr, self.timed(name, getattr(owner, attr), count_items))
            dispatch = self._dispatcher(self.overhead["dispatch"])
            patch(EventQueue, "schedule",
                  self._scheduler(EventQueue.schedule, dispatch, self.overhead["schedule"]))
            patch(EventQueue, "run_until",
                  self.timed("engine.run_until", self._run_until(EventQueue.run_until)))
            patch(Simulation, "_collect",
                  self.timed("sim.collect", self._spanned("collect", Simulation._collect)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _spanned(self, name: str, fn):
        def wrapper(*args):
            with self.span(name):
                return fn(*args)
        return wrapper


def layer_metrics(tracer: Tracer, rnd) -> dict:
    """Per-layer figures for one traced round, from the tracer's counters
    and from the counters the program keeps on its ports and results."""
    runs = [r for r in rnd.runs if r.result is not None]
    results = [r.result for r in runs]
    events = sum(r.events for r in runs)
    if tracer.calls("engine.dispatch") != events:
        raise RuntimeError(f"tracer saw {tracer.calls('engine.dispatch')} dispatches, "
                           f"run_until reported {events}")

    def dispatched(kind):
        return tracer.scheduled[kind] - sum(r.sim.engine.pending(kind) for r in runs)

    fanout_events = fanout_max = admitted = offered = 0
    for run in runs:
        for port in run.sim.ports:
            arrivals = port.cells_out + port.x + port.drops_total()
            if port.name.startswith(FANOUT_PREFIXES):
                fanout_events += arrivals + port.cells_out
                fanout_max = max(fanout_max, port.max_x)
            elif port.name == "A.fwd":
                admitted += port.cells_out + port.x
                offered += arrivals
    phase_s = Counter()
    for span in tracer.spans[tracer.first_span:]:
        phase_s[span["name"]] += span["end"] - span["start"]
    s = tracer.self_s
    return {
        "engine.events": events,
        "engine.events.arrival": dispatched(CELL_ARRIVAL),
        "engine.events.departure": dispatched(CELL_DEPARTURE),
        "engine.events.tick": dispatched(TIMER_TICK),
        "engine.self_s": s("engine.run_until"),
        "engine.schedule_s": s("engine.schedule"),
        "engine.ns_per_event": (s("engine.run_until") + s("engine.schedule")) / events * 1e9,
        "engine.pending_peak": tracer.pending_peak,
        "switches.arrivals": tracer.calls("switches.arrival"),
        "switches.arrival_s": s("switches.arrival"),
        "switches.departures": tracer.calls("switches.departure"),
        "switches.departure_s": s("switches.departure"),
        "switches.fanout.events": fanout_events,
        "switches.fanout.max_queue": fanout_max,
        "switches.bottleneck.max_queue": max(r.max_queue_cells for r in results),
        "switches.drops": sum(r.cells_dropped for r in results),
        "switches.bottleneck.accept_ratio": admitted / offered,
        "aal5.frame_s": s("aal5.frame"),
        "aal5.link_s": s("aal5.link"),
        "aal5.cells_framed": tracer.items("aal5.frame"),
        "aal5.reassembly_s": s("aal5.reassembly"),
        "aal5.reassembly_discards": sum(r.reassembly_discards for r in results),
        "tcp.acks": tracer.calls("tcp.on_ack"),
        "tcp.on_ack_s": s("tcp.on_ack"),
        "tcp.try_send_s": s("tcp.try_send"),
        "tcp.receiver_s": s("tcp.receiver"),
        "tcp.segments_sent": tracer.items("tcp.try_send"),
        "tcp.retransmits": sum(r.retransmitted_segments for r in results),
        "tcp.timeouts": sum(r.timeouts for r in results),
        "sim.emit_s": s("sim.emit"),
        "sim.endpoints_s": s("engine.dispatch"),
        "sim.collect_s": s("sim.collect"),
        "sim.init_s": phase_s["wire"],
        "scenario.parse_s": phase_s["parse"],
        "sweep.rows_s": phase_s["emit"],
    }
