"""Sweep expansion, serialization format, and the CLI surface."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ubrsim.scenario import ScenarioError, build_scenario
from ubrsim.sim import run_scenario
from ubrsim.sweep import (
    CSV_HEADER,
    ResultRow,
    SweepSpec,
    emit_results,
    parse_sweep_text,
    results_csv,
    results_json,
    row_for,
    run_sweep,
)

TINY = dict(config="lan", sources=2, duration_ns=40_000_000)


def test_sweep_cardinality_matches_cross_product():
    spec = SweepSpec(
        configs=("lan",),
        sources=(5, 15),
        buffers=(1000, 2000, 3000),
        policies=("fba",),
        r_fractions=(Fraction(9, 10), Fraction(1, 2), Fraction(1, 10)),
        zs=(Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    )
    assert spec.cardinality() == 54
    scenarios = spec.scenarios()
    assert len(scenarios) == 54
    # spec order: outermost key varies slowest
    assert scenarios[0].n_sources == 5 and scenarios[-1].n_sources == 15
    assert scenarios[0].buffer_cells == 1000 and scenarios[-1].buffer_cells == 3000


def test_parse_sweep_text():
    spec = parse_sweep_text(
        """
        config = lan, wan
        sources = 5, 15
        buffer = 1000, infinite
        policy = ubr, epd
        """
    )
    assert spec.configs == ("lan", "wan")
    assert spec.buffers == (1000, None)
    assert spec.policies == ("ubr", "epd")
    assert spec.cardinality() == 16


def test_singleton_sweep_equals_run_scenario():
    scn = build_scenario(buffer=None, **TINY)
    rows = run_sweep([scn])
    assert len(rows) == 1
    assert rows[0] == row_for(scn, run_scenario(scn))


def test_parallel_sweep_matches_serial_byte_for_byte():
    scenarios = [
        build_scenario(buffer=None, **TINY),
        build_scenario(buffer=80, **TINY),
        build_scenario(buffer=80, policy="epd", r_cells=40, **TINY),
    ]
    serial = results_csv(run_sweep(scenarios, parallelism=1))
    parallel = results_csv(run_sweep(scenarios, parallelism=2))
    assert serial == parallel


def test_csv_header_and_formatting():
    row = ResultRow(
        config="lan", n_sources=5, buffer_cells=1000, policy="epd",
        r_fraction=0.8, z=None, efficiency=0.2134999, fairness=1.0,
        max_queue_cells=1000, drops=17, reassembly_discards=3, retransmits=9,
    )
    text = results_csv([row])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "lan,5,1000,epd,0.8000,,0.2135,1.0000,1000,17,3,9"


def test_csv_infinite_buffer_and_empty_rows():
    row = ResultRow(
        config="wan", n_sources=15, buffer_cells=None, policy="tail_drop",
        r_fraction=None, z=None, efficiency=1.0, fairness=1.0,
        max_queue_cells=5, drops=0, reassembly_discards=0, retransmits=0,
    )
    lines = results_csv([row]).splitlines()
    assert lines[1].startswith("wan,15,infinite,tail_drop,,,")
    assert results_csv([]).splitlines() == [CSV_HEADER]


def test_json_mirrors_csv_fields():
    scn = build_scenario(buffer=None, **TINY)
    row = row_for(scn, run_scenario(scn))
    data = json.loads(results_json([row]))
    assert len(data) == 1
    assert list(data[0].keys()) == CSV_HEADER.split(",")
    assert data[0]["buffer_cells"] == "infinite"
    assert data[0]["efficiency"] == round(row.efficiency, 4)


def test_error_rows_keep_configuration_fields():
    bad = ResultRow(
        config="lan", n_sources=5, buffer_cells=10, policy="epd",
        r_fraction=0.5, z=None, error="Boom: synthetic",
    )
    lines = results_csv([bad]).splitlines()
    assert lines[1] == "lan,5,10,epd,0.5000,,,,,,,"
    data = json.loads(results_json([bad]))
    assert data[0]["error"] == "Boom: synthetic"


def test_emit_results_to_path(tmp_path):
    target = tmp_path / "out.csv"
    emit_results([], "csv", str(target))
    assert target.read_text() == CSV_HEADER + "\n"
    with pytest.raises(OSError):
        emit_results([], "csv", str(tmp_path / "no" / "such" / "dir.csv"))


def test_emit_results_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_results([], "xml", io.StringIO())


# ------------------------------------------------------------------ CLI

def _cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "ubrsim.cli", *args],
        capture_output=True, text=True, **kw,
    )


def _write_tiny_scenario(tmp_path, extra=""):
    path = tmp_path / "tiny.scn"
    path.write_text(
        "config = lan\nsources = 2\nduration_s = 0.04\nbuffer = 80\n" + extra
    )
    return str(path)


def test_cli_run_emits_csv(tmp_path):
    proc = _cli("run", _write_tiny_scenario(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("lan,2,80,tail_drop,")


def test_cli_run_json_output(tmp_path):
    proc = _cli("run", "--format", "json", _write_tiny_scenario(tmp_path))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data[0]["n_sources"] == 2


def test_cli_rejects_bad_scenario(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("config = lan\nsources = 0\n")
    proc = _cli("run", str(path))
    assert proc.returncode == 1
    assert "sources" in proc.stderr


def test_cli_rejects_missing_file():
    proc = _cli("run", "/nonexistent/path.scn")
    assert proc.returncode == 1


def test_cli_sweep_runs_and_reports_cardinality(tmp_path):
    sweep = tmp_path / "tiny.sweep"
    sweep.write_text(
        "[sweep]\nconfig = lan\nsources = 2\nbuffer = 80, infinite\n"
        "policy = ubr\nduration_s = 0.04\n"
    )
    proc = _cli("sweep", str(sweep), "--parallel", "2")
    assert proc.returncode == 0, proc.stderr
    assert "cross product of 2 runs" in proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "80"
    assert lines[2].split(",")[2] == "infinite"


def test_sweep_duration_override_parses():
    spec = parse_sweep_text("[sweep]\nconfig = lan\nsources = 2\nduration_s = 0.25\n")
    assert spec.duration_ns == 250_000_000
    assert spec.scenarios()[0].duration_ns == 250_000_000


def test_cli_trace_emits_time_cwnd_lines(tmp_path):
    path = tmp_path / "trace.scn"
    path.write_text("config = lan\nsources = 2\nduration_s = 0.02\nbuffer = infinite\n")
    proc = _cli("trace", str(path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "# conn 0"
    body = [ln for ln in lines if not ln.startswith("#")]
    t, cwnd = body[0].split(",")
    assert int(t) >= 0 and int(cwnd) == 512
    assert "# conn 1" in lines


def test_invalid_sweep_point_becomes_one_error_row():
    spec = SweepSpec(sources=(2,), buffers=(None, 500), policies=("tail_drop", "epd"),
                     duration_ns=20_000_000)
    with pytest.raises(ScenarioError):
        spec.scenarios()
    rows = run_sweep(spec.points())
    assert [(r.buffer_cells, r.policy) for r in rows] == [
        (None, "tail_drop"), (None, "epd"), (500, "tail_drop"), (500, "epd"),
    ]
    assert [r.error is None for r in rows] == [True, False, True, True]
    assert rows[1].error == "ScenarioError: buffer: policy EPD requires a finite buffer"
    assert rows[1].efficiency is None


def test_cli_sweep_with_invalid_point_emits_every_row(tmp_path):
    sweep = tmp_path / "mixed.sweep"
    sweep.write_text(
        "[sweep]\nconfig = lan\nsources = 2\nbuffer = infinite, 500\n"
        "policy = tail_drop, epd\nduration_s = 0.02\n"
    )
    proc = _cli("sweep", str(sweep), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert [(d["buffer_cells"], d["policy"]) for d in data] == [
        ("infinite", "tail_drop"), ("infinite", "epd"), (500, "tail_drop"), (500, "epd"),
    ]
    assert [("error" in d) for d in data] == [False, True, False, False]
