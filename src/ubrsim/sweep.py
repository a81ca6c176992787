"""Factorial sweep execution and result serialization.

A sweep crosses configuration classes, source counts, buffer sizes,
policies, R fractions and Z cutoffs into one scenario per combination.
Runs are isolated (separate processes when parallel) and rows always come
back in cross-product order, so output is a pure function of the spec.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .metrics import RunResult
from .scenario import Scenario, ScenarioError, build_scenario, _read_sections
from .sim import run_scenario
from .switches import Policy

CSV_HEADER = (
    "config,n_sources,buffer_cells,policy,r_fraction,z,efficiency,fairness,"
    "max_queue_cells,drops,reassembly_discards,retransmits"
)
_CSV_FIELDS = CSV_HEADER.split(",")


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


@dataclass(frozen=True)
class SweepSpec:
    configs: tuple[str, ...] = ("lan",)
    sources: tuple[int, ...] = (5,)
    buffers: tuple[int | None, ...] = (None,)
    policies: tuple[str, ...] = ("tail_drop",)
    r_fractions: tuple[Fraction | None, ...] = (None,)
    zs: tuple[Fraction | None, ...] = (None,)
    duration_ns: int | None = None  # scalar override, never crossed

    def cardinality(self) -> int:
        return (
            len(self.configs) * len(self.sources) * len(self.buffers)
            * len(self.policies) * len(self.r_fractions) * len(self.zs)
        )

    def _combinations(self):
        """Cross-product tuples in listed order (outermost key first)."""
        return itertools.product(
            self.configs, self.sources, self.buffers, self.policies, self.r_fractions, self.zs
        )

    def _build(self, config, n, buf, policy, rf, z) -> Scenario:
        return build_scenario(
            config=config,
            sources=n,
            buffer=buf,
            policy=policy,
            r_fraction=rf,
            z=z,
            duration_ns=self.duration_ns,
        )

    def scenarios(self) -> list[Scenario]:
        """Expand the cross product; an invalid combination raises ScenarioError."""
        return [self._build(*combo) for combo in self._combinations()]

    def points(self) -> list:
        """The cross product as run_sweep takes it: the Scenario of each valid
        combination and, in place of each invalid one, the error row that
        reports it, so one bad combination does not sink the sweep."""
        out: list = []
        for combo in self._combinations():
            try:
                out.append(self._build(*combo))
            except ScenarioError as exc:
                out.append(_error_row(*combo, exc))
        return out


def _parse_list(section, key: str, convert):
    return tuple(convert(item.strip()) for item in section[key].split(",") if item.strip())


def parse_sweep_text(text: str) -> SweepSpec:
    parser = _read_sections(text, "sweep")
    if not parser.has_section("sweep"):
        raise ScenarioError("file", "sweep file needs a [sweep] section")
    sect = parser["sweep"]
    known = {"config", "sources", "buffer", "policy", "r_fraction", "z", "duration_s"}
    unknown = set(sect) - known
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown sweep key")
    kwargs: dict = {}
    if "duration_s" in sect:
        duration = Fraction(sect["duration_s"]) * 10**9
        if duration.denominator != 1:
            raise ScenarioError("duration_s", "finer than one nanosecond")
        kwargs["duration_ns"] = duration.numerator
    if "config" in sect:
        kwargs["configs"] = _parse_list(sect, "config", str.lower)
    if "sources" in sect:
        kwargs["sources"] = _parse_list(sect, "sources", int)
    if "buffer" in sect:
        kwargs["buffers"] = _parse_list(
            sect, "buffer", lambda s: None if s.lower() == "infinite" else int(s)
        )
    if "policy" in sect:
        kwargs["policies"] = _parse_list(sect, "policy", str.lower)
    if "r_fraction" in sect:
        kwargs["r_fractions"] = _parse_list(sect, "r_fraction", Fraction)
    if "z" in sect:
        kwargs["zs"] = _parse_list(sect, "z", Fraction)
    return SweepSpec(**kwargs)


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


def _error_row(config, n_sources, buffer_cells, policy, r_fraction, z, exc) -> ResultRow:
    """A row that keeps a point's configuration and reports why it has no result."""
    return ResultRow(
        config=config,
        n_sources=n_sources,
        buffer_cells=buffer_cells,
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
            scenario.config_class, scenario.n_sources, scenario.buffer_cells,
            scenario.policy.name.lower(), scenario.r_fraction, scenario.z, exc,
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


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _row_cells(row: ResultRow) -> list[str]:
    buffer_text = "infinite" if row.buffer_cells is None else str(row.buffer_cells)
    return [
        row.config,
        str(row.n_sources),
        buffer_text,
        row.policy,
        _fmt_csv(row.r_fraction),
        _fmt_csv(row.z),
        _fmt_csv(row.efficiency),
        _fmt_csv(row.fairness),
        _fmt_csv(row.max_queue_cells),
        _fmt_csv(row.drops),
        _fmt_csv(row.reassembly_discards),
        _fmt_csv(row.retransmits),
    ]


def _row_object(row: ResultRow) -> dict:
    def f4(v):
        return None if v is None else round(v, 4)

    obj = {
        "config": row.config,
        "n_sources": row.n_sources,
        "buffer_cells": "infinite" if row.buffer_cells is None else row.buffer_cells,
        "policy": row.policy,
        "r_fraction": f4(row.r_fraction),
        "z": f4(row.z),
        "efficiency": f4(row.efficiency),
        "fairness": f4(row.fairness),
        "max_queue_cells": row.max_queue_cells,
        "drops": row.drops,
        "reassembly_discards": row.reassembly_discards,
        "retransmits": row.retransmits,
    }
    if row.error is not None:
        obj["error"] = row.error
    return obj


def results_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for row in rows:
        writer.writerow(_row_cells(row))
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
