"""Sender/receiver state machines: window growth, timers, go-back-N, caching."""

from __future__ import annotations

import random

import pytest

from ubrsim.aal5 import cells_for_segment
from ubrsim.engine import InvariantError
from ubrsim.tcp import RttEstimator, TcpReceiver, TcpSender

MSS = 512


def _sender(**kw):
    kw.setdefault("mss", MSS)
    kw.setdefault("rcvwnd", 65535)
    kw.setdefault("initial_ssthresh", kw["rcvwnd"])
    kw.setdefault("rto_initial", 3)
    kw.setdefault("rto_max", 640)
    kw.setdefault("tick_ns", 1)
    return TcpSender(0, **kw)


def _drain(sender, tick=0):
    return sender.try_send(tick)


# -------------------------------------------------------------- rtt estimator

def test_first_sample_seeds_estimator():
    est = RttEstimator(3, 640)
    est.sample(2)
    assert est.srtt8 >> 3 == 2
    assert est.rttvar4 == 4  # rttvar = 1 tick, stored times 4
    assert est.rto == 6


def test_constant_samples_converge():
    est = RttEstimator(3, 640)
    for _ in range(100):
        est.sample(5)
    assert est.srtt8 >> 3 == 5
    assert est.rttvar4 <= 3  # integer floor leaves at most 3/4 tick of residue
    assert 5 <= est.rto <= 8


def test_zero_rtt_floors_at_one_tick():
    est = RttEstimator(3, 640)
    for _ in range(10):
        est.sample(0)
    assert est.rto == 1


def test_backoff_doubles_and_caps():
    est = RttEstimator(rto_initial=3, rto_max=10)
    est.backoff()
    assert est.rto == 6
    est.backoff()
    assert est.rto == 10
    est.backoff()
    assert est.rto == 10


# ------------------------------------------------------------------ try_send

def test_window_arithmetic_two_segments():
    s = _sender()
    s.cwnd = 2 * MSS
    out = _drain(s)
    assert [seg.seq for seg in out] == [0, 512]
    assert s.snd_nxt == 1024
    assert all(seg.last == cells_for_segment(MSS) - 1 for seg in out)


def test_full_window_emits_nothing():
    s = _sender()
    s.cwnd = 65535
    _drain(s)
    assert _drain(s) == []
    assert s.snd_nxt - s.snd_una <= min(s.cwnd, s.rcvwnd)


def test_send_arms_timer_once():
    # Between ticks: RTT samples count floor ticks, and a timer armed at
    # 5 ns or 25 ns with 10 ns ticks starts counting at the next boundary.
    s = _sender(tick_ns=10)
    s.cwnd = 4 * MSS
    s.try_send(5)
    assert s.timed_seq == 0 and s.timed_tick == 0
    assert s.timer_expiry == 1 + s.est.rto
    s.on_ack(512, 25)
    assert s.est.initialized and s.est.srtt8 >> 3 == 2
    assert s.timer_expiry == 3 + s.est.rto


def test_clock_running_back_is_an_invariant_error():
    s = _sender()
    s.cwnd = 2 * MSS
    s.try_send(10)
    s.timed_tick = 11  # the sample's send tick is past now
    with pytest.raises(InvariantError, match="negative RTT sample -1"):
        s.on_ack(512, 10)


# -------------------------------------------------------------------- on_ack

def test_slow_start_doubles_per_window_of_acks():
    s = _sender()
    s.cwnd = 4 * MSS
    s.ssthresh = 64 * MSS
    _drain(s)
    for ack in (512, 1024, 1536, 2048):
        s.on_ack(ack, 0)
    assert s.cwnd == 8 * MSS


def test_congestion_avoidance_adds_one_mss_per_window_of_acks():
    s = _sender()
    s.cwnd = 8 * MSS
    s.ssthresh = 8 * MSS  # at/above threshold: linear region
    _drain(s)
    for i in range(1, 9):
        s.on_ack(i * 512, 0)
    assert s.cwnd == 9 * MSS


def test_duplicate_acks_change_nothing():
    s = _sender()
    s.cwnd = 4 * MSS
    _drain(s)
    s.on_ack(512, 0)
    cwnd = s.cwnd
    nxt = s.snd_nxt
    timer = s.timer_expiry
    for _ in range(3):
        assert s.on_ack(512, 0) is False
    assert s.cwnd == cwnd and s.snd_nxt == nxt and s.timeouts == 0
    assert s.snd_una == 512 and s.timer_expiry == timer


def test_ack_beyond_snd_nxt_aborts():
    s = _sender()
    _drain(s)
    with pytest.raises(InvariantError, match="beyond max sent"):
        s.on_ack(5120, 0)


def test_cumulative_ack_fast_forwards_snd_nxt():
    # after go-back-N, a cache-absorbing ack can cover bytes not yet resent
    s = _sender()
    s.cwnd = 8 * MSS
    _drain(s)
    s.on_tick(s.timer_expiry)  # force timeout: snd_nxt back to 0
    assert s.snd_nxt == 0
    s.try_send(s.timer_expiry)  # retransmit one segment (cwnd is 1 mss)
    s.on_ack(4 * 512, s.timer_expiry)
    assert s.snd_una == 2048 and s.snd_nxt == 2048


# ------------------------------------------------------------------ timeouts

def test_timeout_formula_examples():
    s = _sender()
    s.cwnd = 40960
    s.snd_nxt = 40960  # bytes outstanding so the timer may fire
    s.timer_expiry = 5
    s.on_tick(5)
    assert s.ssthresh == 20480 and s.cwnd == MSS

    s = _sender()
    s.cwnd = 2048
    s.snd_nxt = 2048
    s.timer_expiry = 5
    s.on_tick(5)
    assert s.ssthresh == 1024

    s = _sender()
    s.cwnd = MSS
    s.snd_nxt = MSS
    s.timer_expiry = 5
    s.on_tick(5)
    assert s.ssthresh == 2 * MSS  # the two-segment floor binds


def test_timer_fires_exactly_at_expiry_tick():
    s = _sender()
    s.cwnd = 2 * MSS
    s.est.rto = 3
    s.try_send(10)
    assert s.timer_expiry == 13
    assert s.on_tick(12) is False
    assert s.on_tick(13) is True


def test_new_ack_restarts_timer():
    s = _sender()
    s.cwnd = 4 * MSS
    s.est.rto = 3
    s.try_send(10)
    s.timed_seq = None  # isolate the restart from RTT sampling
    s.on_ack(512, 12)
    assert s.timer_expiry == 15
    assert s.on_tick(13) is False


def test_tick_without_armed_timer_is_noop():
    s = _sender()
    assert s.on_tick(99) is False


def test_goback_n_retransmits_from_snd_una():
    s = _sender()
    s.cwnd = 4 * MSS
    _drain(s)
    s.on_ack(1024, 0)
    s.on_tick(s.timer_expiry)
    assert s.snd_nxt == s.snd_una == 1024
    out = s.try_send(s.timer_expiry)
    assert out[0].seq == 1024
    assert s.retransmits >= 1


def test_first_emission_after_a_timeout_must_go_back_to_snd_una():
    s = _sender()
    s.cwnd = 4 * MSS
    _drain(s)
    s.on_ack(1024, 0)
    s.on_tick(s.timer_expiry)
    s.snd_nxt = 512  # sabotage: below snd_una
    with pytest.raises(InvariantError, match="post-timeout emission at seq 512"):
        s.try_send(s.timer_expiry)


def test_timeout_backs_off_rto():
    s = _sender()
    s.cwnd = 2 * MSS
    _drain(s)
    rto = s.est.rto
    s.on_tick(s.timer_expiry)
    assert s.est.rto == 2 * rto


# ---------------------------------------------------------------------- karn

def test_retransmitted_segments_never_sampled():
    s = _sender()
    s.cwnd = 2 * MSS
    _drain(s)
    assert s.timed_seq == 0
    timeout_tick = s.timer_expiry
    s.on_tick(timeout_tick)  # timeout wipes the in-flight sample
    assert s.timed_seq is None
    s.try_send(timeout_tick)  # go-back-N resend of seq 0: not timed
    assert s.timed_seq is None
    assert not s.est.initialized
    s.on_ack(512, timeout_tick + 1)
    assert not s.est.initialized  # ack of a resent segment leaves it untouched
    # fresh data beyond max_sent starts a new sample
    s.try_send(timeout_tick + 1)
    assert s.timed_seq is not None


def test_sample_taken_for_fresh_segment():
    s = _sender()
    s.cwnd = 2 * MSS
    s.try_send(3)
    s.on_ack(512, 5)
    assert s.est.initialized
    assert s.est.srtt8 >> 3 == 2


# ------------------------------------------------------------------ receiver

def test_in_order_delivery_advances_and_acks():
    r = TcpReceiver(MSS)
    assert r.on_segment(0) == 512
    assert r.on_segment(512) == 1024
    assert r.rcv_nxt == 1024


def test_out_of_order_cached_with_duplicate_ack():
    r = TcpReceiver(MSS)
    assert r.on_segment(512) == 0  # duplicate ack value
    assert 512 in r.cache
    assert r.on_segment(0) == 1024  # hole fill absorbs the cache
    assert not r.cache


def test_cache_absorption_spans_runs():
    r = TcpReceiver(MSS)
    for seq in (1024, 512, 2048):
        r.on_segment(seq)
    assert r.rcv_nxt == 0
    assert r.on_segment(0) == 1536
    assert r.on_segment(1536) == 2560


def test_duplicates_discarded():
    r = TcpReceiver(MSS)
    r.on_segment(0)
    assert r.on_segment(0) == 512  # already delivered
    assert r.rcv_nxt == 512 and not r.cache
    assert r.on_segment(1024) == 512
    assert r.on_segment(1024) == 512  # already cached
    assert r.rcv_nxt == 512 and r.cache == {1024}


# ----------------------------------------------------------- property sweep

def test_window_invariants_under_random_traffic():
    rng = random.Random(4242)
    s = _sender()
    receiver = TcpReceiver(MSS)
    in_flight: list[int] = []
    tick = 0
    for _ in range(3000):
        action = rng.random()
        if action < 0.55:
            for seg in s.try_send(tick):
                in_flight.append(seg.seq)
        elif action < 0.9 and in_flight:
            # deliver a random prefix slice with random loss
            take = rng.randint(1, min(8, len(in_flight)))
            for _ in range(take):
                seq = in_flight.pop(0)
                if rng.random() < 0.8:
                    receiver.on_segment(seq)
            s.on_ack(receiver.rcv_nxt, tick)
        else:
            tick += 1
            if s.on_tick(tick):
                in_flight.clear()  # model everything timed out as lost
        assert s.snd_una <= s.snd_nxt
        assert s.snd_nxt - s.snd_una <= min(s.cwnd, s.rcvwnd)
        assert s.cwnd >= MSS
        assert s.ssthresh >= 2 * MSS
        assert receiver.rcv_nxt <= s.snd_nxt
