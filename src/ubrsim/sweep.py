"""Factorial sweep execution and result serialization.

A sweep is a list of axes, (build_scenario parameter, values) pairs, and
one scenario per combination of their values. A sweep file takes every
key of scenario.KEYS ([policy] kind spelled policy), crossed in KEYS order,
outermost first. Runs are isolated (separate processes when parallel), a
Scenario that several points share runs once, and rows come back in
cross-product order, each varied axis without a column adding one, so
output is a pure function of the spec. Every row, of a result, a failed
run or a rejected point, shows its point as build_scenario resolved it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass, fields
from functools import partial

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
    varied: tuple = ()  # (parameter, value) of each varied axis without a column


_COLUMNS = tuple(f.name for f in fields(ResultRow))[:-1]  # varied trails them
_METRICS = _COLUMNS[6:]  # the six before these are the configuration columns
_CONFIGURATION = ("config", "sources", "buffer", "policy", "r_fraction", "z")  # by parameter
_BUFFERS = ("buffer_cells", "reverse_buffer")  # None reads "infinite"
_FIELDS = {"reverse_buffer": "reverse_buffer_cells"}  # Scenario fields named apart


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[tuple[str, tuple], ...] = ()  # (parameter, values), outermost first

    @property
    def columns(self) -> tuple[str, ...]:
        """The varied axes' parameters without a configuration column, in order."""
        return tuple(name for name, values in self.axes
                     if len(values) > 1 and name not in _CONFIGURATION)

    def scenarios(self) -> list[Scenario | ResultRow]:
        """The cross product as run_sweep takes it: the Scenario of each valid
        combination and, in place of each invalid one, the error row of the
        Scenario its ScenarioError carries, so one bad combination does not
        sink the sweep; a config or policy that names nothing stops it."""
        names = [name for name, _ in self.axes]
        out: list[Scenario | ResultRow] = []
        for combo in itertools.product(*(values for _, values in self.axes)):
            try:
                out.append(build_scenario(**dict(zip(names, combo))))
            except ScenarioError as exc:
                if exc.scenario is None:
                    raise
                out.append(_error_row(exc.scenario, exc, self.columns))
        return out


# Every key of KEYS in crossing order, outermost first; [policy] kind is policy.
_SWEEP_KEYS = {"sweep": {"policy" if key == "kind" else key: entry
                         for section in KEYS.values() for key, entry in section.items()}}


def parse_sweep_text(text: str) -> SweepSpec:
    axes = []
    for key, (param, parse), raw in read_keys(text, _SWEEP_KEYS):
        values = tuple(
            parse_value(key, parse, item.strip()) for item in raw.split(",") if item.strip()
        )
        if not values:
            raise ScenarioError(key, f"no values in {raw!r}")
        axes.append((param, values))
    return SweepSpec(tuple(axes))


def parse_sweep_file(path: str) -> SweepSpec:
    with io.open(path, "r", encoding="utf-8") as fh:
        return parse_sweep_text(fh.read())


def _configuration(scenario: Scenario, columns=()) -> dict:
    """The configuration columns of a Scenario's rows, and its value of each of columns."""
    return dict(
        config=scenario.config_class,
        n_sources=scenario.n_sources,
        buffer_cells=scenario.buffer_cells,
        policy=scenario.policy.name.lower(),
        r_fraction=scenario.r_fraction,
        z=None if scenario.z is None else float(scenario.z),
        varied=tuple((name, getattr(scenario, _FIELDS.get(name, name))) for name in columns),
    )


def row_for(scenario: Scenario, result: RunResult, columns=()) -> ResultRow:
    return ResultRow(
        **_configuration(scenario, columns),
        efficiency=result.efficiency,
        fairness=result.fairness,
        max_queue_cells=result.max_queue_cells,
        drops=result.cells_dropped,
        reassembly_discards=result.reassembly_discards,
        retransmits=result.retransmitted_segments,
    )


def _error_row(scenario: Scenario, exc: Exception, columns=()) -> ResultRow:
    """The row of a rejected or failed Scenario: its configuration and the error."""
    return ResultRow(**_configuration(scenario, columns), error=f"{type(exc).__name__}: {exc}")


def _run_one(scenario: Scenario, columns) -> ResultRow:
    try:
        return row_for(scenario, run_scenario(scenario), columns)
    except Exception as exc:  # a failed run must not sink the sweep
        return _error_row(scenario, exc, columns)


def run_sweep(points, parallelism: int = 1, report=None, columns=()) -> list[ResultRow]:
    """Run each distinct scenario once; rows come back one per point, in
    input order, regardless of parallel completion order, and points that
    are the same Scenario share one row. A ResultRow among the points (an
    invalid combination's error row, see SweepSpec.scenarios) is passed
    through. The process pool is imported and started only when at least
    two distinct runs go to at least two workers; its workers are never
    more than the distinct runs, and the longest runs are submitted first.
    report, if given, gets the run count and the worker count used (1 for a
    serial sweep) and one line per error row, naming its point; columns are
    the sweep's SweepSpec.columns."""
    points = list(points)
    distinct = list(dict.fromkeys(p for p in points if isinstance(p, Scenario)))
    workers = max(1, min(parallelism, len(distinct)))
    if report is not None:
        print(f"sweep: {len(distinct)} runs, parallelism {workers}", file=report)
    if workers == 1:
        ran = {scenario: _run_one(scenario, columns) for scenario in distinct}
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads it

        distinct.sort(key=lambda scenario: scenario.duration_ns, reverse=True)
        # Under the fork start method a pool starts every worker up front.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            run = partial(_run_one, columns=columns)
            ran = dict(zip(distinct, pool.map(run, distinct, chunksize=1)))
    rows = [ran[p] if isinstance(p, Scenario) else p for p in points]
    for point, row in zip(points, rows):
        if row.error is not None and report is not None:
            what = "run failed" if isinstance(point, Scenario) else "point rejected"
            label = "/".join(_fmt_csv(v) for name, v in _row_items(row) if name not in _METRICS)
            print(f"sweep: {what} ({label}): {row.error}", file=report)
    return rows


def _row_items(row: ResultRow):
    """The row's output columns as (name, value): _COLUMNS, then the varied
    ones; each format renders floats to 4 decimals and None as empty."""
    for name, value in itertools.chain(((n, getattr(row, n)) for n in _COLUMNS), row.varied):
        yield name, "infinite" if value is None and name in _BUFFERS else value


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _row_object(row: ResultRow) -> dict:
    return {
        name: round(value, 4) if isinstance(value, float) else value
        for name, value in _row_items(row)
    }


def results_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS + tuple(name for name, _ in rows[0].varied) if rows else _COLUMNS)
    for row in rows:
        writer.writerow(_fmt_csv(value) for _, value in _row_items(row))
    return buf.getvalue()


def results_json(rows) -> str:
    return json.dumps([_row_object(r) for r in rows], indent=2) + "\n"


def open_output(destination):
    """destination opened for writing, or a null context for stdout (None or
    "-"). The CLI opens it before its first run, so a bad path fails at once."""
    if destination is None or destination == "-":
        return contextlib.nullcontext()
    try:
        return open(destination, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write results to {destination!r}: {exc}") from exc


def emit_results(rows, fmt: str = "csv", out=None) -> None:
    """Write rows as CSV or JSON to an open text stream, or to stdout (None);
    open_output turns a destination into one."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    (out or sys.stdout).write(results_csv(rows) if fmt == "csv" else results_json(rows))
