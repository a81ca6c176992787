"""Factorial sweep execution and result serialization.

A sweep is a list of axes, (build_scenario parameter, values) pairs, and
one scenario per combination of their values. A sweep file's keys are read
through the scenario key table (scenario.KEYS) and always cross in one
order, outermost first: config, sources, buffer, policy, r_fraction, z,
then duration_s, which takes one value. Runs are isolated (separate
processes when parallel) and rows always come back in cross-product order,
so output is a pure function of the spec.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .metrics import RunResult
from .scenario import KEYS, Scenario, ScenarioError, build_scenario, parse_value, read_keys
from .sim import run_scenario


@dataclass(frozen=True)
class ResultRow:
    config: str
    n_sources: int
    buffer_cells: int | None
    policy: str
    r_fraction: float | None
    z: float | None
    efficiency: float | None = None
    fairness: float | None = None
    max_queue_cells: int | None = None
    drops: int | None = None
    reassembly_discards: int | None = None
    retransmits: int | None = None
    error: str | None = None


_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "error")
CSV_HEADER = ",".join(_COLUMNS)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[tuple[str, tuple], ...] = ()  # (parameter, values), outermost first

    def cardinality(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def _combinations(self):
        """build_scenario keyword arguments of each point, in cross-product order."""
        names = [name for name, _ in self.axes]
        for combo in itertools.product(*(values for _, values in self.axes)):
            yield dict(zip(names, combo))

    def scenarios(self) -> list[Scenario]:
        """Expand the cross product; an invalid combination raises ScenarioError."""
        return [build_scenario(**point) for point in self._combinations()]

    def points(self) -> list:
        """The cross product as run_sweep takes it: the Scenario of each valid
        combination and, in place of each invalid one, the error row that
        reports it, so one bad combination does not sink the sweep."""
        out: list = []
        for point in self._combinations():
            try:
                out.append(build_scenario(**point))
            except ScenarioError as exc:
                out.append(_error_row(exc, **point))
        return out


# The sweep keys in crossing order, outermost first, with their key-table
# entries; a sweep's policy is a scenario file's [policy] kind.
_SWEEP_KEYS = {
    "sweep": {
        "config": KEYS["scenario"]["config"],
        "sources": KEYS["scenario"]["sources"],
        "buffer": KEYS["scenario"]["buffer"],
        "policy": KEYS["policy"]["kind"],
        "r_fraction": KEYS["policy"]["r_fraction"],
        "z": KEYS["policy"]["z"],
        "duration_s": KEYS["scenario"]["duration_s"],
    }
}


def parse_sweep_text(text: str) -> SweepSpec:
    axes = []
    for key, (param, parse), raw in read_keys(text, _SWEEP_KEYS):
        values = tuple(
            parse_value(key, parse, item.strip()) for item in raw.split(",") if item.strip()
        )
        if not values:
            raise ScenarioError(key, f"no values in {raw!r}")
        if key == "duration_s" and len(values) > 1:
            raise ScenarioError(key, "takes one value: rows do not record the duration")
        axes.append((param, values))
    return SweepSpec(tuple(axes))


def parse_sweep_file(path: str) -> SweepSpec:
    with io.open(path, "r", encoding="utf-8") as fh:
        return parse_sweep_text(fh.read())


def row_for(scenario: Scenario, result: RunResult) -> ResultRow:
    z = scenario.z
    return ResultRow(
        config=scenario.config_class,
        n_sources=scenario.n_sources,
        buffer_cells=scenario.buffer_cells,
        policy=scenario.policy.name.lower(),
        r_fraction=scenario.r_fraction,
        z=None if z is None else float(z),
        efficiency=result.efficiency,
        fairness=result.fairness,
        max_queue_cells=result.max_queue_cells,
        drops=result.drops_total,
        reassembly_discards=result.reassembly_discards,
        retransmits=result.retransmitted_segments,
    )


def _error_row(exc, config="lan", sources=5, buffer=None, policy="tail_drop",
               r_fraction=None, z=None, **_) -> ResultRow:
    """A row that keeps a point's configuration and reports why it has no
    result; a parameter the point leaves out takes build_scenario's default."""
    return ResultRow(
        config=config,
        n_sources=sources,
        buffer_cells=buffer,
        policy=policy,
        r_fraction=None if r_fraction is None else float(r_fraction),
        z=None if z is None else float(z),
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_one(scenario: Scenario) -> ResultRow:
    try:
        return row_for(scenario, run_scenario(scenario))
    except Exception as exc:  # a failed run must not sink the sweep
        return _error_row(
            exc, scenario.config_class, scenario.n_sources, scenario.buffer_cells,
            scenario.policy.name.lower(), scenario.r_fraction, scenario.z,
        )


def run_sweep(
    points, parallelism: int = 1, report=None
) -> list[ResultRow]:
    """Run scenarios in order; rows come back in input order regardless of
    parallel completion order. A ResultRow among the points (an invalid
    combination's error row, see SweepSpec.points) is passed through."""
    points = list(points)
    scenarios = [p for p in points if isinstance(p, Scenario)]
    if report is not None:
        print(f"sweep: {len(scenarios)} runs, parallelism {parallelism}", file=report)
    if parallelism <= 1 or len(scenarios) <= 1:
        ran = map(_run_one, scenarios)
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            ran = iter(list(pool.map(_run_one, scenarios, chunksize=1)))
    rows = [next(ran) if isinstance(p, Scenario) else p for p in points]
    for row in rows:
        if row.error is not None and report is not None:
            print(f"sweep: run failed ({row.config}/{row.n_sources}/"
                  f"{row.buffer_cells}/{row.policy}): {row.error}", file=report)
    return rows


def _column_values(row: ResultRow):
    """The row's output columns in CSV_HEADER order; each format renders
    floats to 4 decimals and None as empty."""
    for name in _COLUMNS:
        value = getattr(row, name)
        yield "infinite" if name == "buffer_cells" and value is None else value


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _row_object(row: ResultRow) -> dict:
    obj = {
        name: round(value, 4) if isinstance(value, float) else value
        for name, value in zip(_COLUMNS, _column_values(row))
    }
    if row.error is not None:
        obj["error"] = row.error
    return obj


def results_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        writer.writerow(map(_fmt_csv, _column_values(row)))
    return buf.getvalue()


def results_json(rows) -> str:
    return json.dumps([_row_object(r) for r in rows], indent=2) + "\n"


def emit_results(rows, fmt: str = "csv", destination=None) -> None:
    """Write rows as CSV or JSON to a path, file object, or stdout."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    text = results_csv(rows) if fmt == "csv" else results_json(rows)
    if destination is None or destination == "-":
        sys.stdout.write(text)
        return
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with io.open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {destination!r}: {exc}") from exc
