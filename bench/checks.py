"""Output checks computed apart from the simulator, and behaviour digests.

Each check takes the Scenario and its RunResult and returns None when the
result passes, else a message. The figures they compare against are derived
here from the scenario's parameters (cell format, windows, buffer sizes),
not from ubrsim's own helpers such as metrics.max_possible_throughput.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from ubrsim.switches import Policy

CELL_BITS = 53 * 8
CELL_PAYLOAD = 48
FRAME_OVERHEAD = 56  # TCP + IP + LLC + AAL5 trailer bytes per segment
REL_TOL = 1e-9

ALLOWED_DROP_REASONS = {
    Policy.TAIL_DROP: {"BUFFER_FULL"},
    Policy.EPD: {"BUFFER_FULL", "EPD_THRESHOLD", "CONTINUED_PACKET_DISCARD"},
    Policy.SELECTIVE_DROP: {"BUFFER_FULL", "LOAD_RATIO", "CONTINUED_PACKET_DISCARD"},
    Policy.FBA: {"BUFFER_FULL", "LOAD_RATIO", "CONTINUED_PACKET_DISCARD"},
}


def cells_per_segment(mss: int) -> int:
    return -(-(mss + FRAME_OVERHEAD) // CELL_PAYLOAD)


def payload_ceiling_bps(scenario) -> float:
    """Line-rate ceiling on delivered TCP payload: mss bytes per segment's cells."""
    return scenario.link_rate_bps * scenario.mss / (53 * cells_per_segment(scenario.mss))


def sum_of_windows_cells(scenario) -> int:
    """Zero-loss buffer bound: every connection's full window queued at once."""
    segments = -(-scenario.rcvwnd // scenario.mss)
    return scenario.n_sources * segments * cells_per_segment(scenario.mss)


def lossless_efficiency_tolerance(scenario) -> float:
    """Largest efficiency shortfall a lossless, single-bottleneck run may show.

    The bottleneck can idle only while slow start has not yet filled the
    pipe: at most one no-queue round trip (RTT0) per window doubling, and
    ceil(log2(window in segments)) doublings reach the receiver window.
    One more RTT0 covers payload still downstream of the bottleneck at the
    horizon. RTT0 is six link delays plus one data segment and one ack
    serialised on each of the three hops.
    """
    cell_s = CELL_BITS / scenario.link_rate_bps
    per_hop_cells = cells_per_segment(scenario.mss) + cells_per_segment(0)
    rtt0 = 6 * scenario.link_delay_ns / 1e9 + 3 * per_hop_cells * cell_s
    doublings = math.ceil(math.log2(-(-scenario.rcvwnd // scenario.mss)))
    return (doublings + 1) * rtt0 / scenario.duration_s


def port_capacity(scenario, port: str):
    """Capacity K of a named port; raises KeyError for a name not in the topology."""
    if port == "A.fwd" or port.startswith("B.dst"):
        return scenario.buffer_cells
    if port == "B.rev" or port.startswith("A.src"):
        return scenario.reverse_buffer_cells
    raise KeyError(port)


def check_conservation(scenario, r):
    if r.cells_injected != r.cells_delivered + r.cells_dropped + r.cells_residual:
        return (f"injected {r.cells_injected} != delivered {r.cells_delivered} + "
                f"dropped {r.cells_dropped} + residual {r.cells_residual}")
    return None


def check_drop_totals(scenario, r):
    totals = {
        "cells_dropped": r.cells_dropped,
        "by_reason": sum(r.drops_by_reason.values()),
        "by_port": sum(r.drops_by_port.values()),
        "by_vc": sum(r.drops_by_vc),
    }
    if len(set(totals.values())) != 1:
        return f"drop totals disagree: {totals}"
    if len(r.drops_by_vc) != scenario.n_sources:
        return f"{len(r.drops_by_vc)} per-VC drop counts for {scenario.n_sources} sources"
    return None


def check_efficiency(scenario, r):
    delivered_bps = sum(r.per_conn_delivered_bytes) * 8 / scenario.duration_s
    eff = delivered_bps / payload_ceiling_bps(scenario)
    if not math.isclose(eff, r.efficiency, rel_tol=REL_TOL, abs_tol=REL_TOL):
        return f"efficiency {r.efficiency!r} but independent recomputation gives {eff!r}"
    if not 0.0 <= eff <= 1.0:
        return f"efficiency {eff!r} outside [0, 1]"
    return None


def check_fairness(scenario, r):
    n = scenario.n_sources
    x = r.per_conn_delivered_bytes
    if len(x) != n:
        return f"{len(x)} connections reported for {n} sources"
    total = sum(x)
    jain = 1.0 if total == 0 else total * total / (n * sum(v * v for v in x))
    if not math.isclose(jain, r.fairness, rel_tol=REL_TOL, abs_tol=REL_TOL):
        return f"fairness {r.fairness!r} but Jain's index of delivered bytes is {jain!r}"
    if not 1.0 / n - REL_TOL <= r.fairness <= 1.0 + REL_TOL:
        return f"fairness {r.fairness!r} outside [1/{n}, 1]"
    return None


def check_port_peaks(scenario, r):
    for port in ("A.fwd", "B.rev"):
        if port not in r.max_queue_by_port:
            return f"no peak queue reported for {port}"
    if r.max_queue_cells != r.max_queue_by_port["A.fwd"]:
        return f"max_queue_cells {r.max_queue_cells} != A.fwd peak {r.max_queue_by_port['A.fwd']}"
    for port, peak in r.max_queue_by_port.items():
        try:
            k = port_capacity(scenario, port)
        except KeyError:
            return f"unknown port {port!r}"
        if peak < 0 or (k is not None and peak > k):
            return f"{port} peak queue {peak} outside [0, K={k}]"
    return None


def check_drop_reasons(scenario, r):
    allowed = ALLOWED_DROP_REASONS[scenario.policy]
    bad = {reason for reason, n in r.drops_by_reason.items() if n} - allowed
    if bad:
        return f"{scenario.policy.name} recorded drop reasons {sorted(bad)}"
    return None


def check_lossless(scenario, r):
    losses = {
        "drops": r.cells_dropped,
        "timeouts": r.timeouts,
        "retransmits": r.retransmitted_segments,
        "reassembly_discards": r.reassembly_discards,
    }
    if any(losses.values()):
        return f"lossless run lost work: {losses}"
    bound = sum_of_windows_cells(scenario)
    if r.max_queue_cells > bound:
        return f"peak queue {r.max_queue_cells} above the sum of windows {bound} cells"
    tol = lossless_efficiency_tolerance(scenario)
    if r.efficiency < 1.0 - tol:
        return f"lossless efficiency {r.efficiency!r} below 1 - {tol:.6f}"
    return None


CHECKS = {
    "conservation": check_conservation,
    "drop_totals": check_drop_totals,
    "efficiency": check_efficiency,
    "fairness": check_fairness,
    "port_peaks": check_port_peaks,
    "drop_reasons": check_drop_reasons,
}


def check_run(scenario, result, lossless: bool, reference=None) -> list[str]:
    """Every check that applies to one run; returns 'name: message' failures.

    reference is an earlier RunResult of the same scenario; a run must
    reproduce it exactly.
    """
    checks = dict(CHECKS)
    if lossless:
        checks["lossless"] = check_lossless
    failures = []
    for name, check in checks.items():
        message = check(scenario, result)
        if message is not None:
            failures.append(f"{name}: {message}")
    if reference is not None and result != reference:
        failures.append("determinism: RunResult differs from an earlier run of the same scenario")
    return failures


def digest(result) -> str:
    """sha256 of a canonical JSON form of every RunResult field."""
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
