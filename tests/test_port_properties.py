"""Properties of OutputPort under random per-VC frame trains, every policy."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim.aal5 import Frame
from ubrsim.engine import CELL_DEPARTURE, EventQueue
from ubrsim.switches import DropReason, OutputPort, Policy

RATE = 155_520_000  # cell time about 2726.34 ns


@st.composite
def _runs(draw):
    """A port configuration (policy, R, Z, VC count, K) and a list of
    (vc, frame size, gap ns) steps.

    Each step first lets gap ns pass, then offers the next cell of vc's
    current frame, starting a new frame of the given size on vc when the
    last one is through. Cells of one VC arrive in frame order, as over
    the FIFO link that carries the VC; VCs interleave freely."""
    policy = draw(st.sampled_from(list(Policy)))
    n_vcs = draw(st.integers(1, 4))
    k = draw(st.integers(2, 40))
    r = None if policy is Policy.TAIL_DROP else draw(st.integers(1, k - 1))
    z = None
    if policy in (Policy.SELECTIVE_DROP, Policy.FBA):
        z = draw(st.fractions(Fraction(1, 10), 2, max_denominator=10))
    steps = draw(st.lists(
        st.tuples(st.integers(0, n_vcs - 1), st.integers(1, 12),
                  st.sampled_from((0, 0, 0, 1000, 2726, 2727, 9000))),
        min_size=1, max_size=300,
    ))
    return policy, r, z, n_vcs, k, steps


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_port_invariants_under_random_frame_trains(run):
    policy, r, z, n_vcs, k, steps = run
    eng = EventQueue()
    sent: dict[Frame, list[int]] = {}

    def next_hop(frame, idx):
        port.check()
        sent.setdefault(frame, []).append(idx)

    port = OutputPort(eng, "p", k, policy, r, z, RATE, [next_hop] * n_vcs)
    frame_aware = policy is not Policy.TAIL_DROP

    def serving_iff_queued():
        # The transmitter is busy exactly while X > 0: one departure pending.
        assert eng.pending(CELL_DEPARTURE) == (1 if port.x else 0)

    current: list[Frame | None] = [None] * n_vcs
    accepted: dict[Frame, list[int]] = {}
    hit: set[Frame] = set()  # frames that lost a cell at the port
    t = 0
    for vc, size, gap in steps:
        t += gap
        eng.run_until(t)
        serving_iff_queued()
        assert port.x <= k
        frame = current[vc]
        if frame is None or frame.arrived > frame.last:
            frame = current[vc] = Frame(vc, 0, 0)
            frame.last = size - 1
        x, idx = port.x, frame.arrived
        decision = port.on_cell_arrival(frame)
        # A discard mark covers the rest of its own frame only: never the
        # VC's next frame, another VC, or any frame under tail drop.
        assert (decision is DropReason.CONTINUED_PACKET_DISCARD) == (frame_aware and frame in hit)
        port.check()
        serving_iff_queued()
        assert frame.arrived == idx + 1
        assert port.x <= k
        if decision is DropReason.NONE:
            if policy is Policy.EPD:
                assert not (idx == 0 and x > r)
            if frame_aware:
                assert frame not in hit
            accepted.setdefault(frame, []).append(idx)
        else:
            hit.add(frame)
    eng.run_until(t + 10**9)
    serving_iff_queued()
    assert port.x == 0
    # Every accepted cell reaches the next hop, numbered as it arrived, its
    # frame's indices in increasing order, tail-drop gaps included.
    assert sent == accepted
    for idxs in sent.values():
        assert all(a < b for a, b in zip(idxs, idxs[1:]))
