"""Deterministic discrete-event simulator of TCP traffic over ATM-UBR
switches, with tail drop, EPD, Selective Drop, and FBA buffer policies."""

from .engine import InvariantError
from .switches import Policy
from .metrics import RunResult
from .scenario import Scenario, ScenarioError, build_scenario, parse_scenario_file
from .sim import Simulation, run_scenario
from .sweep import ResultRow, SweepSpec, emit_results, parse_sweep_file, row_for, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Scenario",
    "ScenarioError",
    "build_scenario",
    "parse_scenario_file",
    "Simulation",
    "run_scenario",
    "RunResult",
    "InvariantError",
    "Policy",
    "SweepSpec",
    "parse_sweep_file",
    "run_sweep",
    "ResultRow",
    "row_for",
    "emit_results",
    "__version__",
]
