"""Throughput efficiency and fairness metrics over raw run counters.

The simulation core is pure integer arithmetic; these reporting functions
are the only place floating point appears, at end of run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aal5 import CELL_WIRE_BYTES, cells_for_segment


def max_possible_throughput(link_rate_bps: float, mss: int) -> float:
    """Best-case application bit rate once framing overhead is paid.

    An mss-byte segment rides cells_for_segment(mss) cells of 53 wire bytes,
    so the usable fraction of the link is mss / (53 * cells).
    """
    return link_rate_bps * mss / (CELL_WIRE_BYTES * cells_for_segment(mss))


def efficiency(per_conn_throughputs_bps, link_rate_bps: float, mss: int) -> float:
    """Sum of delivered throughputs over the maximum possible throughput."""
    return sum(per_conn_throughputs_bps) / max_possible_throughput(link_rate_bps, mss)


def fairness_index(values) -> float:
    """Jain's index (sum x)^2 / (n * sum x^2), in [1/n, 1].

    1 means equal shares, 1/n means a single hog. An all-zero vector returns
    1 by convention so sweep aggregation never divides by zero; callers that
    care flag that case separately (see RunResult.fairness_degenerate).
    """
    values = list(values)
    n = len(values)
    if n < 1:
        raise ValueError("fairness index needs at least one value")
    if any(v < 0 for v in values):
        raise ValueError("fairness index is defined for non-negative values")
    total = float(sum(values))
    if total == 0.0:
        return 1.0
    return total * total / (n * float(sum(v * v for v in values)))


@dataclass(frozen=True)
class RunResult:
    """Raw per-run counters plus the metrics derived from them.

    efficiency and fairness are always recomputed from the raw fields by
    from_counters, never supplied independently.
    """

    per_conn_delivered_bytes: tuple[int, ...]
    duration_s: float
    link_rate_bps: int
    mss: int
    max_queue_cells: int
    max_queue_by_port: dict[str, int]
    drops_by_reason: dict[str, int]
    drops_by_port: dict[str, int]
    drops_by_vc: tuple[int, ...]
    reassembly_discards: int
    retransmitted_segments: int
    timeouts: int
    cells_injected: int
    cells_delivered: int
    cells_dropped: int
    cells_residual: int
    per_conn_throughput_bps: tuple[float, ...]
    efficiency: float
    fairness: float
    fairness_degenerate: bool

    @classmethod
    def from_counters(cls, **counters) -> "RunResult":
        """The result of a run's raw counters (every field above
        per_conn_throughput_bps), with the derived metrics computed from them."""
        delivered = counters["per_conn_delivered_bytes"]
        throughputs = tuple(b * 8.0 / counters["duration_s"] for b in delivered)
        return cls(
            **counters,
            per_conn_throughput_bps=throughputs,
            efficiency=efficiency(throughputs, counters["link_rate_bps"], counters["mss"]),
            fairness=fairness_index(throughputs),
            fairness_degenerate=not any(delivered),
        )

    @property
    def drops_total(self) -> int:
        return sum(self.drops_by_reason.values())

    def cells_conserved(self) -> bool:
        """Cells in = cells reassembled + cells dropped + cells still resident."""
        return self.cells_injected == (
            self.cells_delivered + self.cells_dropped + self.cells_residual
        )
