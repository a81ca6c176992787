"""Deterministic discrete-event simulator of TCP traffic over ATM-UBR
switches, with tail drop, EPD, Selective Drop, and FBA buffer policies."""

from .engine import EventQueue, SchedulingError
from .aal5 import Segment, cells_for_segment, segment_to_cells, Reassembler
from .switches import (
    DropDecision,
    DropReason,
    Policy,
    PolicyConfig,
    Verdict,
    epd_decide,
    fba_decide,
    selective_drop_decide,
    tail_drop_decide,
)
from .tcp import RttEstimator, TcpReceiver, TcpSender
from .metrics import RunResult, efficiency, fairness_index, max_possible_throughput
from .scenario import Scenario, ScenarioError, build_scenario, parse_scenario_file
from .sim import Simulation, run_scenario
from .sweep import ResultRow, SweepSpec, emit_results, parse_sweep_file, row_for, run_sweep

__version__ = "0.1.0"

__all__ = [
    "EventQueue",
    "SchedulingError",
    "Segment",
    "cells_for_segment",
    "segment_to_cells",
    "Reassembler",
    "DropDecision",
    "DropReason",
    "Policy",
    "PolicyConfig",
    "Verdict",
    "epd_decide",
    "fba_decide",
    "selective_drop_decide",
    "tail_drop_decide",
    "RttEstimator",
    "TcpReceiver",
    "TcpSender",
    "RunResult",
    "efficiency",
    "fairness_index",
    "max_possible_throughput",
    "Scenario",
    "ScenarioError",
    "build_scenario",
    "parse_scenario_file",
    "Simulation",
    "run_scenario",
    "ResultRow",
    "SweepSpec",
    "emit_results",
    "parse_sweep_file",
    "row_for",
    "run_sweep",
    "__version__",
]
