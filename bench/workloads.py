"""The benchmark's three workloads and one round of each.

A round takes a workload's scenario or sweep text through the same public
calls the ``ubrsim`` CLI makes (parse -> Simulation -> run -> row_for ->
emit_results), serially in this process, and times set-up apart from the
simulation calls.
"""

from __future__ import annotations

import io
import time
from contextlib import nullcontext
from dataclasses import dataclass

from ubrsim.scenario import Scenario, parse_scenario_text
from ubrsim.sim import Simulation
from ubrsim.sweep import emit_results, parse_sweep_text, row_for

LAN_LOSSLESS = """\
[scenario]
config = lan
sources = 5
buffer = infinite
duration_s = {duration_s}
"""

WAN_LOSSLESS = """\
[scenario]
config = wan
sources = 5
buffer = infinite
duration_s = {duration_s}
"""

LAN_POLICIES = """\
[sweep]
config = lan
sources = 15
buffer = 1000
policy = tail_drop, epd, selective_drop, fba
r_fraction = 0.9
z = 0.8
duration_s = {duration_s}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    duration_s: str
    is_sweep: bool
    lossless: bool

    def text(self, duration_s: str | None = None) -> str:
        return self.template.format(duration_s=duration_s or self.duration_s)

    def parse(self, text: str) -> list[tuple[str, Scenario]]:
        """Scenario or sweep text -> labelled scenarios, in run order."""
        if not self.is_sweep:
            return [(self.name, parse_scenario_text(text))]
        return [
            (f"{self.name}/{s.policy.name.lower()}", s)
            for s in parse_sweep_text(text).scenarios()
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lan-lossless", LAN_LOSSLESS, "1.0", is_sweep=False, lossless=True),
        Workload("wan-lossless", WAN_LOSSLESS, "1.0", is_sweep=False, lossless=True),
        Workload("lan-policies", LAN_POLICIES, "0.5", is_sweep=True, lossless=False),
    )
}


@dataclass
class Run:
    """One simulation run of a round: its scenario, Simulation and outcome."""

    label: str
    scenario: Scenario
    sim: Simulation
    events: int = 0
    result: object = None  # RunResult, or None when run() raised
    error: str | None = None


@dataclass
class Round:
    runs: list[Run]
    cpu_s: float

    @property
    def cells(self) -> int:
        return sum(r.result.cells_injected for r in self.runs if r.result is not None)

    @property
    def events(self) -> int:
        return sum(r.events for r in self.runs)


def _count_events(run: Run) -> None:
    """Keep run_until's dispatch count, which Simulation.run drops.

    An instance attribute shadows the method for this one engine only; it
    costs one extra call per simulation run.
    """
    run_until = run.sim.engine.run_until

    def counted(end: int) -> int:
        run.events = run_until(end)
        return run.events

    run.sim.engine.run_until = counted


def _no_span(_name: str):
    return nullcontext()


def setup(workload: Workload, text: str, tracer=None) -> list[Run]:
    """Scenario or sweep text -> wired Simulations ready to run."""
    span = tracer.span if tracer is not None else _no_span
    with span("parse"):
        scenarios = workload.parse(text)
    runs = []
    with span("wire"):
        for label, scenario in scenarios:
            runs.append(Run(label, scenario, Simulation(scenario)))
    for run in runs:
        _count_events(run)
    return runs


def run_round(workload: Workload, text: str, tracer=None) -> Round:
    """Set up, run and emit one pass of the workload.

    cpu_s is this thread's CPU time for the simulation calls plus row
    output, set-up excluded. A run that raises is kept with its error so
    the caller counts it failed, as run_sweep would emit an error row.
    """
    span = tracer.span if tracer is not None else _no_span
    clock = time.thread_time
    with span("round"):
        runs = setup(workload, text, tracer)
        t1 = clock()
        for run in runs:
            with span(f"run {run.label}"):
                try:
                    run.result = run.sim.run()
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    run.error = f"{type(exc).__name__}: {exc}"
        out = io.StringIO()
        with span("emit"):
            rows = [row_for(r.scenario, r.result) for r in runs if r.result is not None]
            emit_results(rows, "csv", out)
        t2 = clock()
    return Round(runs, t2 - t1)
