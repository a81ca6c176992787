"""Deterministic discrete-event engine on an integer-nanosecond clock.

All simulation time is whole nanoseconds so runs are bit-exact across
platforms. Events dispatch in (time, origin, insertion) order (see EventQueue).
A scheduled event always fires: there is no cancellation, so nothing on
the heap is ever skipped.
"""

from __future__ import annotations

import heapq

NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000

# Event kind tags. The engine ignores them; diagnostics and end-of-run
# checks use them to classify queued events. A CELL_ARRIVAL entry's payload
# is always an aal5.Frame: that of one in-flight cell (the cell is a
# reference to its frame) or, when a serializer hop delivers to a host, the
# whole reassembled frame. A hop schedules only deliveries that fire within
# its run, so a CELL_ARRIVAL still pending at the end of a run is always a
# cell on a link.
CELL_ARRIVAL = 1
CELL_DEPARTURE = 2
TIMER_TICK = 3
APP_SEND = 4


class InvariantError(RuntimeError):
    """An internal invariant of the simulator broke, in the engine or in a
    component it drives; the run must abort (always fatal, never ignored)."""


class EventQueue:
    """Time-ordered event queue with a monotone clock.

    Heap entries are tuples (fire_time, origin, seq, callback, payload,
    kind): origin is the clock when the event was scheduled and seq a unique
    insertion counter. Events are dispatched in (fire_time, origin, seq)
    order. The clock never runs back, so for events scheduled by schedule()
    this is exactly (fire_time, seq) order: events firing at the same
    instant dispatch in insertion order. origin lets schedule_as_of() place
    an event as if it had been scheduled later.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self.now = 0

    def schedule(self, fire_time: int, kind: int, callback, payload=None) -> None:
        """Queue callback(payload) at fire_time ns."""
        if fire_time < self.now:
            raise InvariantError(
                f"event (kind={kind}) scheduled at t={fire_time} ns, behind the "
                f"clock at t={self.now} ns"
            )
        heapq.heappush(self._heap, (fire_time, self.now, self._seq, callback, payload, kind))
        self._seq += 1

    def schedule_as_of(
        self, origin: int, fire_time: int, kind: int, callback, payload=None
    ) -> None:
        """schedule() as if called at the later instant origin.

        This lets a component that works out a future hand-off early, with
        no event of its own at origin, keep the place among equal-time
        events that the hand-off would have had if such an event had made
        it. Ties that reach past origin fall back to insertion order.
        """
        now = self.now
        self.now = origin
        try:
            self.schedule(fire_time, kind, callback, payload)
        finally:
            self.now = now

    def run_until(self, end: int) -> int:
        """Dispatch every event with fire_time <= end and leave the clock at end.

        Returns the number of events dispatched.
        """
        if self._running:
            raise InvariantError("run_until re-entered while dispatching")
        if end < self.now:
            raise ValueError(f"run_until({end}) is behind the clock at {self.now}")
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        self._running = True
        try:
            while heap and heap[0][0] <= end:
                fire_time, _, _, callback, payload, _ = pop(heap)
                self.now = fire_time
                callback(payload)
                dispatched += 1
        finally:
            self._running = False
        self.now = end
        return dispatched

    def pending(self, kind: int | None = None) -> int:
        """Count queued events, optionally restricted to one kind."""
        if kind is None:
            return len(self._heap)
        return sum(1 for e in self._heap if e[5] == kind)
