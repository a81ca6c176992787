"""Factorial sweep execution and result serialization.

A sweep is a list of axes, (build_scenario parameter, values) pairs, and
one scenario per combination of their values. A sweep file takes every
key of scenario.KEYS, crossed in KEYS order, outermost first. Runs are
isolated (separate processes when parallel), a Scenario that several
points share runs once, and rows come back in cross-product order, each
multi-valued axis without a column adding one, so output is a pure
function of the spec. Every row, of a result, a failed run or a rejected
point, holds its point as build_scenario resolved it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

from .metrics import RunResult
from .scenario import Scenario, ScenarioError, build_scenario, parse_value, read_keys
from .sim import run_scenario


@dataclass(frozen=True)
class ResultRow:
    scenario: Scenario  # as build_scenario resolved it, for a rejected point too
    result: RunResult | None = None
    error: str | None = None


def _cells(n: int | None):
    return "infinite" if n is None else n


# Each output column once. A configuration column: its name, the
# build_scenario parameter it shows and its value in a Scenario.
_CONFIGURATION = (
    ("config", "config", lambda s: s.config_class),
    ("n_sources", "sources", lambda s: s.n_sources),
    ("buffer_cells", "buffer", lambda s: _cells(s.buffer_cells)),
    ("policy", "policy", lambda s: s.policy.name.lower()),
    ("r_fraction", "r_fraction", lambda s: s.r_fraction),
    ("z", "z", lambda s: None if s.z is None else float(s.z)),
)
# A metric column: its name and its value in a RunResult; error follows them.
# A run that delivered nothing shows no fairness: Jain's index of an all-zero
# vector is 1 only by convention (RunResult.fairness_degenerate).
_METRICS = (
    ("efficiency", lambda r: r.efficiency),
    ("fairness", lambda r: None if r.fairness_degenerate else r.fairness),
    ("max_queue_cells", lambda r: r.max_queue_cells),
    ("drops", lambda r: r.cells_dropped),
    ("reassembly_discards", lambda r: r.reassembly_discards),
    ("retransmits", lambda r: r.retransmitted_segments),
)
# Each multi-valued axis without a configuration column adds one after
# error, named by its parameter: the Scenario field of that name, but these.
_ADDED = {"reverse_buffer": lambda s: _cells(s.reverse_buffer_cells)}
_HEADER = (*(name for name, _, _ in _CONFIGURATION), *(name for name, _ in _METRICS), "error")


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[tuple[str, tuple], ...] = ()  # (parameter, values), outermost first

    @property
    def columns(self) -> tuple[str, ...]:
        """The multi-valued axes' parameters without a configuration column, in order."""
        shown = {parameter for _, parameter, _ in _CONFIGURATION}
        return tuple(name for name, values in self.axes if len(values) > 1 and name not in shown)

    def scenarios(self) -> list[Scenario | ResultRow]:
        """The cross product as run_sweep takes it: the Scenario of each valid
        combination and, in place of each invalid one, a row of the error and
        the Scenario its ScenarioError carries, so one bad combination does not
        sink the sweep; a config or policy that names nothing stops it."""
        names = [name for name, _ in self.axes]
        out: list[Scenario | ResultRow] = []
        for combo in itertools.product(*(values for _, values in self.axes)):
            try:
                out.append(build_scenario(**dict(zip(names, combo))))
            except ScenarioError as exc:
                if exc.scenario is None:
                    raise
                out.append(ResultRow(exc.scenario, error=_describe(exc)))
        return out


def parse_sweep_text(text: str) -> SweepSpec:
    axes = []
    for key, (param, parse), raw in read_keys(text, "sweep"):
        values = tuple(
            parse_value(key, parse, item.strip()) for item in raw.split(",") if item.strip()
        )
        if not values:
            raise ScenarioError(key, f"no values in {raw!r}")
        axes.append((param, values))
    return SweepSpec(tuple(axes))


def row_for(scenario: Scenario, result: RunResult) -> ResultRow:
    return ResultRow(scenario, result)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_one(scenario: Scenario) -> ResultRow:
    try:
        return row_for(scenario, run_scenario(scenario))
    except Exception as exc:  # a failed run must not sink the sweep
        return ResultRow(scenario, error=_describe(exc))


def run_sweep(points, parallelism: int = 1, report=None, columns=()) -> list[ResultRow]:
    """Run each distinct scenario once; rows come back one per point, in
    input order, regardless of parallel completion order, and points that
    are the same Scenario share one row. A ResultRow among the points (an
    invalid combination's error row, see SweepSpec.scenarios) is passed
    through. The process pool is imported and started only when at least
    two distinct runs go to at least two workers; its workers are never
    more than the distinct runs, and the longest runs are submitted first.
    report, if given, gets the run count and the worker count used (1 for a
    serial sweep) and one line per error row, naming its point by its
    configuration and columns, the sweep's SweepSpec.columns."""
    points = list(points)
    distinct = list(dict.fromkeys(p for p in points if isinstance(p, Scenario)))
    workers = max(1, min(parallelism, len(distinct)))
    if report is not None:
        print(f"sweep: {len(distinct)} runs, parallelism {workers}", file=report)
    if workers == 1:
        ran = {scenario: _run_one(scenario) for scenario in distinct}
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads it

        distinct.sort(key=lambda scenario: scenario.duration_ns, reverse=True)
        # Under the fork start method a pool starts every worker up front.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            ran = dict(zip(distinct, pool.map(_run_one, distinct, chunksize=1)))
    rows = [ran[p] if isinstance(p, Scenario) else p for p in points]
    for point, row in zip(points, rows):
        if row.error is not None and report is not None:
            what = "run failed" if isinstance(point, Scenario) else "point rejected"
            label = "/".join(_fmt_csv(v) for _, v in _row_items(row, columns, outcome=False))
            print(f"sweep: {what} ({label}): {row.error}", file=report)
    return rows


def _row_items(row: ResultRow, columns, outcome: bool = True):
    """The row's output columns as (name, value): _HEADER's (without the
    metrics and error unless outcome), then columns; each format renders
    floats to 4 decimals and None as empty."""
    for name, _, value in _CONFIGURATION:
        yield name, value(row.scenario)
    if outcome:
        for name, value in _METRICS:
            yield name, None if row.result is None else value(row.result)
        yield "error", row.error
    for name in columns:
        yield name, _ADDED[name](row.scenario) if name in _ADDED else getattr(row.scenario, name)


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _row_object(row: ResultRow, columns) -> dict:
    return {
        name: round(value, 4) if isinstance(value, float) else value
        for name, value in _row_items(row, columns)
    }


def results_csv(rows, columns=()) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADER + tuple(columns))
    for row in rows:
        writer.writerow(_fmt_csv(value) for _, value in _row_items(row, columns))
    return buf.getvalue()


def results_json(rows, columns=()) -> str:
    return json.dumps([_row_object(r, columns) for r in rows], indent=2) + "\n"


def emit_results(rows, fmt: str, out, columns=()) -> None:
    """Write rows as CSV or JSON to the open text stream out, each with a
    column per name in columns (a sweep's SweepSpec.columns)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    out.write(results_csv(rows, columns) if fmt == "csv" else results_json(rows, columns))
