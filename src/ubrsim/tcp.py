"""TCP sender and receiver state machines without Fast Retransmit/Recovery.

Slow start and congestion avoidance drive the window; loss recovery is a
coarse-grained retransmission timer followed by go-back-N from the oldest
unacknowledged byte. Duplicate acks are ignored.

The sender takes the engine's clock in nanoseconds but sees whole ticks of
tick_ns: RTT samples and expiry checks use the floor tick, and a timer
(re)armed between two ticks counts from the next tick boundary, since a
coarse clock cannot observe sub-tick arming.
"""

from __future__ import annotations

from .aal5 import Frame
from .engine import InvariantError


class RttEstimator:
    """Smoothed RTT and deviation in whole timer ticks.

    Classic fixed-point scaling: srtt is stored times 8 and rttvar times 4,
    so rto = (srtt8 >> 3) + rttvar4 equals srtt + 4*rttvar. Samples are in
    whole ticks; the retransmission timer never falls below one tick.
    """

    __slots__ = ("srtt8", "rttvar4", "rto", "rto_max", "initialized")

    def __init__(self, rto_initial: int, rto_max: int) -> None:
        self.srtt8 = 0
        self.rttvar4 = 0
        self.rto = rto_initial
        self.rto_max = rto_max
        self.initialized = False

    def sample(self, ticks: int) -> None:
        """Fold in one round-trip measurement (never from a retransmission)."""
        if ticks < 0:
            raise InvariantError(f"negative RTT sample {ticks}: the clock ran back")
        if not self.initialized:
            self.srtt8 = ticks << 3
            self.rttvar4 = ticks << 1
            self.initialized = True
        else:
            err = ticks - (self.srtt8 >> 3)
            self.srtt8 += err
            self.rttvar4 += abs(err) - (self.rttvar4 >> 2)
        rto = (self.srtt8 >> 3) + self.rttvar4
        self.rto = min(max(rto, 1), self.rto_max)

    def backoff(self) -> None:
        self.rto = min(2 * self.rto, self.rto_max)


class TcpSender:
    """Window state for one infinite-source connection.

    Sequence numbers are unbounded byte offsets. The sender only ever emits
    full-MSS segments, and the usable window is min(cwnd, rcvwnd) even when
    cwnd has grown past the advertised receiver window.
    """

    def __init__(
        self,
        conn_id: int,
        mss: int,
        rcvwnd: int,
        initial_ssthresh: int,
        rto_initial: int,
        rto_max: int,
        tick_ns: int,
    ) -> None:
        self.conn_id = conn_id
        self.mss = mss
        self.tick_ns = tick_ns
        self.rcvwnd = rcvwnd
        self.cwnd = mss
        self.ssthresh = initial_ssthresh
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = 0
        self.ca_acc = 0  # congestion-avoidance growth accumulator, byte*byte units
        self.est = RttEstimator(rto_initial, rto_max)
        self.timer_expiry: int | None = None
        self.timed_seq: int | None = None
        self.timed_tick = 0
        # counters
        self.retransmits = 0
        self.timeouts = 0
        self._retx_pending = False

    def _expiry(self, now: int) -> int:
        """Expiry tick of a timer (re)armed at now ns: rto ticks after the
        next tick boundary."""
        return (now + self.tick_ns - 1) // self.tick_ns + self.est.rto

    def try_send(self, now: int) -> list[Frame]:
        """Emit every full segment the window permits at now ns; advance snd_nxt."""
        mss = self.mss
        limit = self.snd_una + min(self.cwnd, self.rcvwnd)
        nxt = self.snd_nxt
        out = []
        while nxt + mss <= limit:
            if nxt < self.max_sent:
                self.retransmits += 1
            elif self.timed_seq is None:
                # Karn: time only segments sent exactly once.
                self.timed_seq = nxt
                self.timed_tick = now // self.tick_ns
            out.append(Frame(self.conn_id, nxt, mss))
            nxt += mss
        if out:
            if self._retx_pending:
                if out[0].seq != self.snd_una:
                    raise InvariantError(
                        f"conn {self.conn_id}: first post-timeout emission at seq "
                        f"{out[0].seq}, expected snd_una {self.snd_una}"
                    )
                self._retx_pending = False
            self.snd_nxt = nxt
            if nxt > self.max_sent:
                self.max_sent = nxt
            if self.timer_expiry is None:
                self.timer_expiry = self._expiry(now)
        return out

    def on_ack(self, ack_no: int, now: int) -> bool:
        """Process one cumulative ack at now ns; returns True if it acked new data."""
        if ack_no > self.max_sent:
            # Checked against the highest byte ever transmitted: after a
            # go-back-N rewind, old in-flight copies can legitimately draw
            # cumulative acks beyond the rewound snd_nxt.
            raise InvariantError(
                f"conn {self.conn_id}: ack {ack_no} beyond max sent {self.max_sent}"
            )
        if ack_no <= self.snd_una:
            return False
        if self.timed_seq is not None and ack_no >= self.timed_seq + self.mss:
            self.est.sample(now // self.tick_ns - self.timed_tick)
            self.timed_seq = None
        self.snd_una = ack_no
        if self.snd_nxt < ack_no:
            # Cumulative ack covered bytes we had not resent yet (the
            # receiver had them cached); never send below snd_una again.
            self.snd_nxt = ack_no
        mss = self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += mss
        else:
            self.ca_acc += mss * mss
            if self.ca_acc >= self.cwnd * mss:
                self.ca_acc -= self.cwnd * mss
                self.cwnd += mss
        self.timer_expiry = None if self.snd_una == self.snd_nxt else self._expiry(now)
        return True

    def on_tick(self, now: int) -> bool:
        """Coarse timer check at now ns; returns True on a timeout (go-back-N)."""
        if (
            self.timer_expiry is None
            or now // self.tick_ns < self.timer_expiry
            or self.snd_una >= self.snd_nxt
        ):
            return False
        mss = self.mss
        self.ssthresh = max(2 * mss, min(self.cwnd // 2, self.rcvwnd))
        self.cwnd = mss
        self.snd_nxt = self.snd_una  # go-back-N
        self.ca_acc = 0
        self.est.backoff()
        self.timer_expiry = self._expiry(now)
        self.timed_seq = None
        self.timeouts += 1
        self._retx_pending = True
        return True


class TcpReceiver:
    """Cumulative-ack receiver that caches out-of-order segments. Each is a
    full MSS, all TcpSender sends, so it is known by its seq alone."""

    __slots__ = ("mss", "rcv_nxt", "cache")

    def __init__(self, mss: int) -> None:
        self.mss = mss
        self.rcv_nxt = 0
        self.cache: set[int] = set()

    def on_segment(self, seq: int) -> int:
        """Absorb one intact segment; returns the ack number to emit now."""
        if seq == self.rcv_nxt:
            self.rcv_nxt = seq + self.mss
            cache = self.cache
            while self.rcv_nxt in cache:
                cache.remove(self.rcv_nxt)
                self.rcv_nxt += self.mss
        elif seq > self.rcv_nxt:
            self.cache.add(seq)  # a duplicate leaves the set as it was
        return self.rcv_nxt
