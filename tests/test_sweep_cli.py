"""Sweep expansion, serialization format, and the CLI surface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ubrsim.cli import TABLES, _build_parser, main
from ubrsim.engine import InvariantError
from ubrsim.scenario import ScenarioError, build_scenario, parse_scenario_text
from ubrsim.sim import Simulation, run_scenario
from ubrsim.sweep import (
    ResultRow,
    SweepSpec,
    emit_results,
    parse_sweep_text,
    results_csv,
    results_json,
    row_for,
    run_sweep,
)
from ubrsim.switches import Policy

TINY = dict(config="lan", sources=2, duration_ns=40_000_000)
CSV_HEADER = ("config,n_sources,buffer_cells,policy,r_fraction,z,efficiency,fairness,"
              "max_queue_cells,drops,reassembly_discards,retransmits,error")
CONFIGURATION = CSV_HEADER.split(",")[:6]


def _shown(row, columns=()):
    """row's output cells as its JSON object shows them."""
    [obj] = json.loads(results_json([row], columns))
    return obj


def _tiny_result(**fields):
    """A real RunResult with fields replaced, for rows of chosen values."""
    return replace(run_scenario(build_scenario(**TINY)), **fields)


def test_sweep_cardinality_matches_cross_product():
    spec = SweepSpec((
        ("config", ("lan",)),
        ("sources", (5, 15)),
        ("buffer", (1000, 2000, 3000)),
        ("policy", ("fba",)),
        ("r_fraction", (Fraction(9, 10), Fraction(1, 2), Fraction(1, 10))),
        ("z", (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))),
    ))
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
    axes = dict(spec.axes)
    assert axes["config"] == ("lan", "wan")
    assert axes["buffer"] == (1000, None)
    assert axes["policy"] == ("ubr", "epd")
    assert len(spec.scenarios()) == 16
    # Axes cross in one fixed order, whatever order the file lists them in.
    assert [name for name, _ in spec.axes] == ["config", "sources", "buffer", "policy"]
    assert parse_sweep_text("policy = ubr, epd\nbuffer = 1000, infinite\n"
                            "sources = 5, 15\nconfig = lan, wan\n") == spec


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


def _counting_runs(monkeypatch):
    """Route the sweep's runs through run_scenario, recording each Scenario run."""
    calls = []

    def run(scenario):
        calls.append(scenario)
        return run_scenario(scenario)

    monkeypatch.setattr("ubrsim.sweep.run_scenario", run)
    return calls


def test_sweep_runs_each_distinct_scenario_once(monkeypatch):
    calls = _counting_runs(monkeypatch)
    # Tail drop ignores r_fraction and z, and EPD ignores z: 8 points, 3 Scenarios.
    spec = parse_sweep_text(
        "sources = 2\nbuffer = 80\npolicy = tail_drop, epd\n"
        "r_fraction = 0.5, 0.9\nz = 0.5, 0.8\nduration_s = 0.02\n"
    )
    points = spec.scenarios()
    rows = run_sweep(points)
    assert len(points) == len(rows) == 8
    assert calls == list(dict.fromkeys(points)) and len(calls) == 3
    for point, row in zip(points, rows):
        assert row == row_for(point, run_scenario(point))
        assert row is rows[points.index(point)]  # duplicates share the first row
    # Rows stay in cross-product order: policy, then r_fraction, then z.
    assert [(o["policy"], o["r_fraction"]) for o in json.loads(results_json(rows))] == [
        ("tail_drop", None)] * 4 + [("epd", 0.5)] * 2 + [("epd", 0.9)] * 2


def test_rows_name_the_varied_keys_they_ran():
    spec = parse_sweep_text("sources = 2\nmss = 512, 1460\nduration_s = 0.02, 0.04\n")
    assert spec.columns == ("mss", "duration_ns")  # KEYS order
    points = spec.scenarios()
    rows = run_sweep(points)
    assert len(rows) == 4
    header, *lines = results_csv(rows, spec.columns).splitlines()
    assert header == CSV_HEADER + ",mss,duration_ns"
    objects = json.loads(results_json(rows, spec.columns))
    for point, line, obj in zip(points, lines, objects):
        assert line.split(",")[-2:] == [str(point.mss), str(point.duration_ns)]
        assert list(obj)[-2:] == ["mss", "duration_ns"]
        assert (obj["duration_ns"], obj["mss"]) == (point.duration_ns, point.mss)
    assert [(p.mss, p.duration_ns) for p in points] == [
        (512, 20_000_000), (512, 40_000_000), (1460, 20_000_000), (1460, 40_000_000)]


def test_points_of_one_scenario_share_a_row_showing_what_ran(monkeypatch):
    calls = _counting_runs(monkeypatch)
    # Tail drop has no threshold, so both points build one Scenario.
    spec = parse_sweep_text("sources = 2\nbuffer = 80\nr_cells = 100, 200\nduration_s = 0.02\n")
    points = spec.scenarios()
    rows = run_sweep(points)
    assert len(calls) == 1 and rows[0] is rows[1]
    assert list(_shown(rows[0], spec.columns).items())[-1] == ("r_cells", None)
    assert [line.split(",")[-1] for line in results_csv(rows, spec.columns).splitlines()] == [
        "r_cells", "", ""]
    # An error row shows the value its point gave (R = 100 is not below K = 80).
    spec = parse_sweep_text("sources = 2\nbuffer = 80\npolicy = epd\nr_cells = 100, 40\n"
                            "duration_s = 0.02\n")
    rows = run_sweep(spec.scenarios())
    assert [(row.error is None, list(_shown(row, spec.columns).items())[-1]) for row in rows] == [
        (False, ("r_cells", 100)), (True, ("r_cells", 40))]


def test_parallel_sweep_submits_longest_runs_first(monkeypatch):
    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            submitted.extend(items)
            return map(fn, list(items))

    calls = _counting_runs(monkeypatch)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    points = [build_scenario(config="lan", sources=2, duration_ns=ms * 1_000_000)
              for ms in (20, 40, 20, 30)]
    rows = run_sweep(points, parallelism=2)
    assert [s.duration_ns for s in submitted] == [40_000_000, 30_000_000, 20_000_000]
    assert calls == submitted
    assert rows == [row_for(p, run_scenario(p)) for p in points]
    assert rows[0] is rows[2]


def test_parallel_sweep_starts_no_more_workers_than_distinct_runs(monkeypatch):
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, list(items))

    _counting_runs(monkeypatch)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    points = [build_scenario(config="lan", sources=2, duration_ns=ms * 1_000_000)
              for ms in (20, 30, 20)]
    report = io.StringIO()
    run_sweep(points, parallelism=64, report=report)
    run_sweep(points, parallelism=2)
    run_sweep(points[:1], parallelism=64, report=report)  # one run: serial, no pool
    assert workers == [2, 2]
    assert report.getvalue().splitlines() == [
        "sweep: 2 runs, parallelism 2", "sweep: 1 runs, parallelism 1"]


def test_csv_header_and_formatting():
    row = row_for(
        build_scenario(sources=5, buffer=1000, policy="epd", r_fraction=Fraction(4, 5)),
        _tiny_result(efficiency=0.2134999, fairness=1.0, max_queue_cells=1000,
                     cells_dropped=17, reassembly_discards=3, retransmitted_segments=9),
    )
    text = results_csv([row])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "lan,5,1000,epd,0.8000,,0.2135,1.0000,1000,17,3,9,"


def test_csv_infinite_buffer_and_empty_rows():
    row = row_for(
        build_scenario(config="wan", sources=15),
        _tiny_result(efficiency=1.0, fairness=1.0, max_queue_cells=5, cells_dropped=0,
                     reassembly_discards=0, retransmitted_segments=0),
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
    assert data[0]["efficiency"] == round(row.result.efficiency, 4)


def test_error_row_defaults_are_build_scenarios():
    # A point that leaves a parameter out reports build_scenario's default.
    default = row_for(build_scenario(), run_scenario(build_scenario(**TINY)))
    [error_row] = SweepSpec((("duration_ns", (0,)),)).scenarios()
    assert error_row.error == "ScenarioError: duration_ns: must be positive, got 0"
    shown, expected = _shown(error_row), _shown(default)
    assert [shown[c] for c in CONFIGURATION] == [expected[c] for c in CONFIGURATION]


def test_error_rows_keep_configuration_fields():
    bad = ResultRow(build_scenario(sources=5, buffer=10, policy="epd", r_cells=5),
                    error="Boom: synthetic")
    lines = results_csv([bad]).splitlines()
    assert lines[1] == "lan,5,10,epd,0.5000,,,,,,,,Boom: synthetic"
    data = json.loads(results_json([bad]))
    assert data[0]["error"] == "Boom: synthetic"


def test_run_writes_results_to_a_path(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", _write_tiny_scenario(tmp_path), "-o", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == CSV_HEADER and row.startswith("lan,2,80,tail_drop,")


def test_emit_results_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_results([], "xml", io.StringIO())


# ------------------------------------------------------------------ CLI

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_env() -> dict:
    """The environment of a subprocess that imports this checkout's ubrsim."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _cli(*args, **kw):
    """Run the CLI in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "ubrsim.cli", *args],
        capture_output=True, text=True, env=_cli_env(), **kw,
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


def test_cli_run_rejects_a_policy_section(tmp_path, capsys):
    # The drop policy is the key `policy` beside every other key; a
    # [policy] section is unknown, like any section but the file's own.
    path = tmp_path / "old.scn"
    path.write_text("sources = 2\n[policy]\nkind = fba\n")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: file: unknown section [policy]\n"


def test_cli_rejects_missing_file():
    for command in ("run", "sweep", "trace"):
        proc = _cli(command, "/nonexistent/path.scn")
        assert proc.returncode == 1
        assert "/nonexistent/path.scn" in proc.stderr


@pytest.mark.parametrize("command, text", [
    ("run", "[scenario]\nsources = 3\nduration_s = 0.01\n"),
    ("run", "sources = 3\nduration_s = 0.01\n"),
    ("trace", "[scenario]\nsources = 3\nduration_s = 0.01\n"),
    ("trace", "sources = 3\nduration_s = 0.01\n"),
    ("sweep", "[sweep]\nsources = 2, 3\nduration_s = 0.01\n"),
    ("sweep", "sources = 2, 3\nduration_s = 0.01\n"),
], ids=["run", "run-headerless", "trace", "trace-headerless", "sweep", "sweep-headerless"])
def test_a_byte_order_mark_is_allowed(tmp_path, capsys, command, text):
    # Windows Notepad saves UTF-8 with a byte-order mark; it reads as the
    # same file without one.
    outputs = []
    for name, body in (("plain", text), ("bom", "\ufeff" + text)):
        path, out = tmp_path / name, tmp_path / f"{name}.out"
        path.write_text(body, encoding="utf-8")
        assert main([command, str(path), "-o", str(out)]) == 0, capsys.readouterr().err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["run", "sweep", "trace"])
def test_an_undecodable_file_is_named(tmp_path, capsys, command):
    path = tmp_path / "latin1.scn"
    path.write_bytes("# caf\u00e9\nsources = 3\n".encode("latin-1"))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xe9 "
        "in position 5: invalid continuation byte\n")


_LOSSY_RUN = ("sources = 3\nbuffer = 300\ntick_ms = 1\nduration_s = 0.05\n"
              "policy = epd\nr_cells = 100\n")


@pytest.mark.parametrize("fmt, lines, digest", [
    ("csv", 2, "5dccf4330fd8eec2e9380713cb2db2803b4cacb432e927ae956d0805cdaf4af6"),
    ("json", 17, "020d91b30f6c3e5d317c010a1c1a17c72818b7c2f8250c0ac14fb35625ac3b43"),
])
def test_run_output_is_pinned(tmp_path, capsys, fmt, lines, digest):
    # A run that drops cells under EPD, so every metric column is non-trivial.
    path = tmp_path / "lossy.scn"
    path.write_text(_LOSSY_RUN)
    out = tmp_path / f"out.{fmt}"
    assert main(["run", str(path), "--format", fmt, "-o", str(out)]) == 0
    data = out.read_bytes()
    assert (len(data.splitlines()), hashlib.sha256(data).hexdigest()) == (lines, digest)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command, text", [
    ("run", _LOSSY_RUN),
    ("sweep", "[sweep]\nsources = 2, 3\nbuffer = 80, infinite\nduration_s = 0.02\n"),
])
def test_dash_output_is_the_output_path_bytes(tmp_path, monkeypatch, capsys, command, text):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, str(path), "-o", "-"]) == 0
    stdout = capsys.readouterr().out
    assert main([command, str(path), "-o", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out.csv").read_bytes() == stdout.encode()
    assert not (tmp_path / "-").exists()


def test_cli_sweep_runs_and_reports_cardinality(tmp_path):
    sweep = tmp_path / "tiny.sweep"
    sweep.write_text(
        "[sweep]\nconfig = lan\nsources = 2\nbuffer = 80, infinite\n"
        "policy = ubr\nduration_s = 0.04\n"
    )
    proc = _cli("sweep", str(sweep), "--parallel", "2")
    assert proc.returncode == 0, proc.stderr
    assert "cross product of 2 points" in proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "80"
    assert lines[2].split(",")[2] == "infinite"


def test_sweep_duration_override_parses():
    spec = parse_sweep_text("[sweep]\nconfig = lan\nsources = 2\nduration_s = 0.25\n")
    assert dict(spec.axes)["duration_ns"] == (250_000_000,)
    assert spec.scenarios()[0].duration_ns == 250_000_000


@pytest.mark.parametrize("text, field", [
    ("z = 1/0", "z"),
    ("sources = x", "sources"),
    ("buffer = big", "buffer"),
    ("sources = ,", "sources"),
])
def test_bad_sweep_value_names_its_key(text, field):
    with pytest.raises(ScenarioError) as err:
        parse_sweep_text(f"[sweep]\n{text}\n")
    assert str(err.value).startswith(f"{field}: ")


def test_sweep_comment_before_header_parses():
    for text in ("# a note\n[sweep]\nsources = 2, 3\n", "# a note\nsources = 2, 3\n",
                 "sources = 2, 3\n"):
        assert parse_sweep_text(text).axes == (("sources", (2, 3)),)


def test_sweep_file_rejects_other_sections():
    with pytest.raises(ScenarioError) as err:
        parse_sweep_text("[sweep]\nbuffer = 1000\n\n[policy]\nkind = epd\n")
    assert str(err.value).startswith("file: ")
    assert "[policy]" in str(err.value)
    # [DEFAULT] is an unknown section like any other: its axes are neither
    # dropped nor copied into [sweep].
    for text in ("[DEFAULT]\nsources = 3, 4\n",
                 "[sweep]\nbuffer = 1000\n[DEFAULT]\nsources = 3, 4\n"):
        with pytest.raises(ScenarioError) as err:
            parse_sweep_text(text)
        assert str(err.value) == "file: unknown section [DEFAULT]"


@pytest.mark.parametrize("text", ["z = 1/0", "sources = x", "buffer = big", "sources = ,"])
def test_cli_sweep_bad_value_exits_1_naming_the_key(tmp_path, text):
    sweep = tmp_path / "bad.sweep"
    sweep.write_text(f"[sweep]\n{text}\n")
    proc = _cli("sweep", str(sweep))
    assert proc.returncode == 1
    key = text.split()[0]
    assert proc.stderr.startswith(f"error: {key}: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["run", "x.scn", "--format", "xml"],
    ["table1", "--parallel", "abc"],
    ["table1", "--parallel", "0"],
    ["sweep", "x.sweep", "--parallel", "-2"],
    ["table1", "--config", "xyz"],
    ["no-such-command"],
])
def test_cli_usage_errors_exit_1(argv, capsys):
    # Exit 2 is reserved for internal invariant violations.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command, scenario, lines_read", [
    # About 150 KB of cwnd trace, more than a 64 KiB pipe holds, so the CLI
    # is still writing when the reader closes the pipe after one line.
    ("trace", "sources = 5\nrcvwnd = 8000000\nduration_s = 0.3\nbuffer = infinite\n", 1),
    # One short row, still in stdout's buffer when the command returns.
    ("run", "sources = 2\nduration_s = 0.02\n", 0),
], ids=["trace-past-the-pipe-buffer", "run-still-buffered"])
def test_cli_exits_0_quietly_when_the_reader_goes_away(tmp_path, command, scenario, lines_read):
    path = tmp_path / "x.scn"
    path.write_text(scenario)
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
    proc = subprocess.Popen(
        [sys.executable, "-m", "ubrsim.cli", command, str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _break_every_run(monkeypatch):
    def run(self):
        raise InvariantError("synthetic breakage")

    monkeypatch.setattr(Simulation, "run", run)


def test_invariant_error_in_a_run_exits_2(tmp_path, monkeypatch, capsys):
    _break_every_run(monkeypatch)
    assert main(["run", _write_tiny_scenario(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "internal invariant violation: synthetic breakage\n"


def test_invariant_error_in_a_sweep_is_one_error_row(tmp_path, monkeypatch, capsys):
    _break_every_run(monkeypatch)
    sweep = tmp_path / "one.sweep"
    sweep.write_text("[sweep]\nsources = 2\nduration_s = 0.02\n")
    assert main(["sweep", str(sweep), "--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert row["error"] == "InvariantError: synthetic breakage"
    # A failed run's row shows the configuration its result row would.
    sweep.write_text("[sweep]\nsources = 2\nbuffer = 1000\npolicy = epd, sd\n"
                     "duration_s = 0.02\n")
    assert main(["sweep", str(sweep), "--format", "json"]) == 0
    epd, sd = json.loads(capsys.readouterr().out)
    assert epd["error"] == sd["error"] == "InvariantError: synthetic breakage"
    assert (epd["policy"], epd["r_fraction"], epd["z"]) == ("epd", 0.8, None)
    assert (sd["policy"], sd["r_fraction"], sd["z"]) == ("selective_drop", 0.9, 0.8)


def test_sweep_reports_a_rejected_point_apart_from_a_failed_run(tmp_path, monkeypatch, capsys):
    _break_every_run(monkeypatch)
    sweep = tmp_path / "mixed.sweep"
    sweep.write_text("[sweep]\nsources = 2\nbuffer = 1, 1000, infinite\npolicy = sd\n"
                     "duration_s = 0.02\n")
    assert main(["sweep", str(sweep)]) == 0
    reports = [ln for ln in capsys.readouterr().err.splitlines() if "): " in ln]
    assert reports == [
        "sweep: point rejected (lan/2/1/selective_drop/0.0000/0.8000): ScenarioError: "
        "buffer: policy SELECTIVE_DROP needs threshold 0 < R < K, got R=0 K=1 (R defaulted "
        "to floor(0.9 K); set r_cells or r_fraction)",
        "sweep: run failed (lan/2/1000/selective_drop/0.9000/0.8000): InvariantError: "
        "synthetic breakage",
        "sweep: point rejected (lan/2/infinite/selective_drop//0.8000): ScenarioError: "
        "buffer: policy SELECTIVE_DROP requires a finite buffer",
    ]


@pytest.mark.parametrize("axis, labels", [
    ("z = 0.5, 0.8", ["lan/2/10/selective_drop/0.9000/0.5000",
                      "lan/2/10/selective_drop/0.9000/0.8000"]),
    ("r_fraction = 0.5, 0.6", ["lan/2/10/selective_drop/0.5000/0.8000",
                               "lan/2/10/selective_drop/0.6000/0.8000"]),
    ("mss = 512, 1460", ["lan/2/10/selective_drop/0.9000/0.8000/512",
                         "lan/2/10/selective_drop/0.9000/0.8000/1460"]),
    ("reverse_buffer = 1, infinite", ["lan/2/10/selective_drop/0.9000/0.8000/1",
                                      "lan/2/10/selective_drop/0.9000/0.8000/infinite"]),
])
def test_sweep_report_names_the_whole_point(axis, labels, capsys):
    # Each rejected point of a varied axis gets its own label. K = 10 keeps
    # the R of r_fraction 0.5 and 0.6 apart; a zero duration rejects all.
    spec = parse_sweep_text(f"sources = 2\nbuffer = 10\npolicy = sd\n{axis}\nduration_s = 0\n")
    rows = run_sweep(spec.scenarios(), report=sys.stderr, columns=spec.columns)
    assert all(row.error is not None for row in rows)
    reports = [ln for ln in capsys.readouterr().err.splitlines() if "): " in ln]
    assert [ln.split(" (", 1)[1].split("): ", 1)[0] for ln in reports] == labels


def _no_run_may_start(monkeypatch):
    def run(*_args, **_kw):
        raise AssertionError("a run started before the output was opened")

    for name in ("run_sweep", "run_scenario"):
        monkeypatch.setattr(f"ubrsim.cli.{name}", run)
    monkeypatch.setattr(Simulation, "run", run)


def test_unwritable_output_fails_before_any_run(tmp_path, monkeypatch, capsys):
    _no_run_may_start(monkeypatch)
    sweep = tmp_path / "one.sweep"
    sweep.write_text("[sweep]\nsources = 2\nduration_s = 0.02\n")
    missing = str(tmp_path / "missing" / "x.csv")
    assert main(["sweep", str(sweep), "-o", missing]) == 1
    assert f"cannot write results to {missing!r}" in capsys.readouterr().err
    assert main(["table1", "--config", "lan", "-o", missing]) == 1
    assert main(["run", _write_tiny_scenario(tmp_path), "-o", missing]) == 1
    capsys.readouterr()  # run's message names missing too; read trace's alone
    assert main(["trace", _write_tiny_scenario(tmp_path), "-o", missing]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write results to {missing!r}: ")
    # Input is still read first: a bad scenario names itself, not the output.
    assert main(["run", str(tmp_path / "none.scn"), "-o", missing]) == 1
    assert "none.scn" in capsys.readouterr().err


def test_cli_trace_emits_time_cwnd_lines(tmp_path):
    path = tmp_path / "trace.scn"
    path.write_text("config = lan\nsources = 2\nduration_s = 0.02\nbuffer = infinite\n")
    proc = _cli("trace", str(path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["conn,time_ns,cwnd", "0,0,512"]  # every sender starts at one segment


def test_invalid_sweep_point_becomes_one_error_row():
    spec = SweepSpec((
        ("sources", (2,)),
        ("buffer", (None, 500)),
        ("policy", ("tail_drop", "epd")),
        ("duration_ns", (20_000_000,)),
    ))
    rows = run_sweep(spec.scenarios())
    assert [(r.scenario.buffer_cells, r.scenario.policy) for r in rows] == [
        (None, Policy.TAIL_DROP), (None, Policy.EPD), (500, Policy.TAIL_DROP), (500, Policy.EPD),
    ]
    assert [r.error is None for r in rows] == [True, False, True, True]
    assert rows[1].error == "ScenarioError: buffer: policy EPD requires a finite buffer"
    assert rows[1].result is None and _shown(rows[1])["efficiency"] is None


@pytest.mark.parametrize("text, row", [
    ("sources = 0", ("lan", 0, "infinite", "tail_drop", None, None)),
    # Z shows only under SD and FBA, as in a result row.
    ("config = WAN\npolicy = EPD\nz = 1/2", ("wan", 5, "infinite", "epd", None, None)),
    # An alias is written under the name a result row of that policy has,
    # with the R/K that policy's default R resolves to: floor(0.9 * 1) / 1.
    ("sources = 2\nbuffer = 1\npolicy = sd", ("lan", 2, 1, "selective_drop", 0.0, 0.8)),
    # R/K is the resolved R over K: none for K < 1 or an infinite K.
    ("buffer = 0\npolicy = sd", ("lan", 5, 0, "selective_drop", None, 0.8)),
    ("policy = epd\nr_fraction = 1/2", ("lan", 5, "infinite", "epd", None, None)),
    ("policy = epd", ("lan", 5, "infinite", "epd", None, None)),
    ("policy = fba\nr_fraction = 1/2\nz = 0", ("lan", 5, "infinite", "fba", None, 0.0)),
    ("sources = 0\nr_fraction = 1/2\nz = 1/2", ("lan", 0, "infinite", "tail_drop", None, None)),
])
def test_error_row_shows_defaults_and_lower_case_names(text, row):
    [error_row] = parse_sweep_text(text).scenarios()
    assert error_row.error is not None
    assert tuple(_shown(error_row)[c] for c in CONFIGURATION) == row


@pytest.mark.parametrize("k, point, name, z, fraction", [
    pytest.param(300, "policy = epd\nr_cells = 100", "epd", None, 100 / 300, id="epd-epd-None"),
    pytest.param(300, "policy = sd\nr_cells = 100", "selective_drop", 0.8, 100 / 300,
                 id="sd-selective_drop-0.8"),
    # A fraction of K and EPD's default R resolve as the result row shows
    # them: floor(7 / 2) / 7 and (300 - 200) / 300.
    pytest.param(7, "policy = sd\nr_fraction = 1/2", "selective_drop", 0.8, 3 / 7,
                 id="sd-r_fraction-of-7"),
    pytest.param(300, "policy = epd", "epd", None, 100 / 300, id="epd-default-r"),
])
def test_error_row_shows_r_cells_over_the_buffer(k, point, name, z, fraction):
    # The reverse buffer rejects the second point; its row shows the R/K
    # that the first point's result row shows.
    rows = run_sweep(parse_sweep_text(
        f"[sweep]\nsources = 2\nbuffer = {k}\n{point}\n"
        f"reverse_buffer = {k}, infinite\nduration_s = 0.02\n").scenarios())
    assert [r.error is None for r in rows] == [True, False]
    shown = [(_shown(r)["policy"], r.scenario.r_fraction, _shown(r)["z"]) for r in rows]
    assert shown == [(name, fraction, z)] * 2
    ran, rejected = results_csv(rows).splitlines()[1:]
    prefix = f"lan,2,{k},{name},{fraction:.4f},"
    assert ran.startswith(prefix) and rejected.startswith(prefix)


@pytest.mark.parametrize("key, value, message", [
    ("policy", "epd, RED", "error: policy: unknown policy 'red'"),
    ("config", "lan, xan", "error: config: unknown configuration class 'xan' (lan or wan)"),
], ids=["policy", "config"])
def test_an_unknown_name_stops_the_sweep(tmp_path, monkeypatch, capsys, key, value, message):
    # A name that resolves to nothing has no row to show: the sweep stops
    # before any run, as on a value that does not parse.
    _no_run_may_start(monkeypatch)
    sweep = tmp_path / "unknown.sweep"
    sweep.write_text(f"[sweep]\nsources = 2\nbuffer = 300\n{key} = {value}\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", str(sweep), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


_POINTS = st.fixed_dictionaries(
    {
        "sources": st.integers(1, 3),
        "buffer": st.integers(1, 40),
        "policy": st.sampled_from(("epd", "sd", "fba")),
        "z": st.fractions(0, 2, max_denominator=10).filter(lambda z: z > 0),
    },
    optional={
        "r_fraction": st.fractions(0, 1, max_denominator=10),
        "r_cells": st.integers(0, 41),
    },
).filter(lambda point: not {"r_fraction", "r_cells"} <= point.keys())


@settings(max_examples=60, deadline=None)
@given(_POINTS)
def test_a_point_shows_one_configuration_run_or_rejected(point):
    # Whenever a point builds, crossing it with an infinite reverse buffer,
    # which every frame-aware policy rejects, shows the same configuration.
    try:
        build_scenario(**point)
    except ScenarioError:
        assume(False)
    axes = tuple((name, (value,)) for name, value in point.items())
    spec = SweepSpec(axes + (("duration_ns", (1_000_000,)),
                             ("reverse_buffer", (point["buffer"], None))))
    ran, rejected = run_sweep(spec.scenarios())
    assert ran.error is None and rejected.error is not None
    ran_line, rejected_line = results_csv([ran, rejected]).splitlines()[1:]
    assert ran_line.split(",")[:6] == rejected_line.split(",")[:6]


_PINNED_SWEEP = """[sweep]
sources = 2
buffer = 80, infinite
reverse_buffer = 80, infinite
mss = 512, 1460
duration_s = 0.02
policy = tail_drop, sd
z = 1/2, 4/5
"""


@pytest.mark.parametrize("fmt, lines, digest", [
    ("csv", 33, "aec85560996a26a10a23ab07fd1c65eb56a9664ae1490e140b07705b6c69388a"),
    ("json", 546, "148f3d6046b5eec6752f337fe94e7db92882af195b4924a30bdbbb0aac2b8d37"),
])
def test_sweep_output_is_pinned(tmp_path, capsys, fmt, lines, digest):
    # 32 points and 12 runs: rejected rows (SD on an infinite buffer), rows
    # shared by points that build one Scenario (tail drop ignores z), the
    # sd alias shown as selective_drop, and the added reverse_buffer and
    # mss columns, infinite among their values.
    sweep = tmp_path / "pinned.sweep"
    sweep.write_text(_PINNED_SWEEP)
    out = tmp_path / f"out.{fmt}"
    assert main(["sweep", str(sweep), "--format", fmt, "-o", str(out)]) == 0
    data = out.read_bytes()
    assert (len(data.splitlines()), hashlib.sha256(data).hexdigest()) == (lines, digest)
    err = capsys.readouterr().err.encode()
    assert (len(err.splitlines()), hashlib.sha256(err).hexdigest()) == (
        14, "f3d4e2ab30efab81027cea89fb41a63a5c74c4d66d6a75c255cfc78b8ee3295f")


_LOCKSTEP_SWEEP = """[sweep]
config = lan
sources = 15
mss = 1460
buffer = 300
policy = tail_drop, epd, selective_drop, fba
duration_s = 2
"""


@pytest.mark.parametrize("fmt, no_fairness", [("csv", ""), ("json", None)])
def test_a_run_that_delivers_nothing_shows_no_fairness(tmp_path, capsys, fmt, no_fairness):
    # The lockstep point delivers nothing under every policy. Jain's index
    # of all-zero throughputs is 1 only by convention, so the row shows none.
    sweep = tmp_path / "lockstep.sweep"
    sweep.write_text(_LOCKSTEP_SWEEP)
    out = tmp_path / f"out.{fmt}"
    assert main(["sweep", str(sweep), "--format", fmt, "-o", str(out)]) == 0
    text = out.read_text()
    rows = list(csv.DictReader(io.StringIO(text))) if fmt == "csv" else json.loads(text)
    assert [row["policy"] for row in rows] == ["tail_drop", "epd", "selective_drop", "fba"]
    zero = "0.0000" if fmt == "csv" else 0.0
    assert [(row["efficiency"], row["fairness"]) for row in rows] == [(zero, no_fairness)] * 4
    assert capsys.readouterr().err == (
        "sweep: cross product of 4 points\nsweep: 4 runs, parallelism 1\n")


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
    assert [d["error"] is not None for d in data] == [False, True, False, False]


# ------------------------------------------------------------ grids and files

def _table(name, configs=("lan", "wan")):
    return [p for c in configs for p in TABLES[name][c].scenarios()]


def test_builtin_grids_are_pinned():
    zero = _table("table1")
    assert [(s.config_class, s.n_sources, s.buffer_cells, s.policy, s.r_cells, s.z)
            for s in zero] == [
        (config, n, None, Policy.TAIL_DROP, None, None)
        for config in ("lan", "wan") for n in (5, 15)
    ]
    expected = []
    for config, buffers in (("lan", (1000, 2000, 3000)), ("wan", (12000, 24000, 36000))):
        for n in (5, 15):
            for k in buffers:
                expected += [
                    (config, n, k, Policy.TAIL_DROP, None, None),
                    (config, n, k, Policy.EPD, k - 200, None),
                    (config, n, k, Policy.SELECTIVE_DROP, 9 * k // 10, Fraction(4, 5)),
                    (config, n, k, Policy.FBA, 9 * k // 10, Fraction(4, 5)),
                ]
    grid = _table("table2")
    assert [(s.config_class, s.n_sources, s.buffer_cells, s.policy, s.r_cells, s.z)
            for s in grid] == expected
    # Apart from the policy, every point is its class default with the
    # reverse buffer mirroring the forward one.
    for s in zero + grid:
        plain = build_scenario(config=s.config_class, sources=s.n_sources, buffer=s.buffer_cells)
        assert replace(s, policy=Policy.TAIL_DROP, r_cells=None, reverse_r_cells=None,
                       z=None) == plain
        assert s.reverse_r_cells == s.r_cells
    # --config picks one class's sweep; the default runs both, LAN first.
    assert _table("table2", ("wan",)) == grid[len(grid) // 2:]


def test_tables_and_one_value_sweeps_keep_the_header(tmp_path, monkeypatch, capsys):
    # Neither a table nor a one-value sweep file varies a key without a column.
    tiny = run_scenario(build_scenario(**TINY))
    monkeypatch.setattr("ubrsim.sweep.run_scenario", lambda scenario: tiny)
    sweep = tmp_path / "one.sweep"
    sweep.write_text("[sweep]\nsources = 2\nreverse_buffer = infinite\nmss = 1460\n"
                     "rcvwnd = 65535\nduration_s = 0.02\nr_cells = 100\n")
    for argv, rows in ((["table1"], 4), (["table2"], 48), (["sweep", str(sweep)], 1)):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 1 + rows


def test_table3_is_an_alias_of_table2(monkeypatch, capsys):
    parser = _build_parser()
    assert parser.parse_args(["table1"]).table is TABLES["table1"]
    assert parser.parse_args(["table2"]).table is TABLES["table2"]
    assert parser.parse_args(["table3"]).table is TABLES["table2"]
    ran = []
    monkeypatch.setattr("ubrsim.cli.run_sweep", lambda points, **kw: ran.append(points) or [])
    assert main(["table3", "--config", "lan"]) == 0
    assert ran == [TABLES["table2"]["lan"].scenarios()]


def test_table_commands_run_their_sweeps(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr("ubrsim.cli.run_sweep", lambda points, **kw: ran.append(points) or [])
    assert main(["table2", "--config", "wan"]) == 0
    assert ran.pop() == TABLES["table2"]["wan"].scenarios()
    assert "sweep: cross product of 24 points" in capsys.readouterr().err
    assert main(["table1"]) == 0
    assert ran.pop() == _table("table1")
    assert "sweep: cross product of 2 + 2 points" in capsys.readouterr().err


def test_cli_trace_dash_output_is_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "trace.scn"
    path.write_text("config = lan\nsources = 2\nduration_s = 0.02\n")
    assert main(["trace", str(path), "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("conn,time_ns,cwnd\n0,0,512\n")
    assert not (tmp_path / "-").exists()


def test_cli_trace_writes_one_table_to_the_output_path(tmp_path, capsys):
    path = tmp_path / "trace.scn"
    path.write_text("config = lan\nsources = 2\nduration_s = 0.02\n")
    assert main(["trace", str(path), "-o", "-"]) == 0
    stdout = capsys.readouterr().out
    assert main(["trace", str(path), "-o", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out.csv").read_bytes() == stdout.encode()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("out")] == ["out.csv"]


def test_cli_trace_of_a_lossy_run_is_pinned(tmp_path, capsys):
    # A run that drops cells, so the trace holds resets to one segment as
    # well as slow-start growth; the digest is of the whole stdout.
    text = "sources = 3\nbuffer = 300\ntick_ms = 1\nduration_s = 0.2\n"
    path = tmp_path / "lossy.scn"
    path.write_text(text)
    assert main(["trace", str(path), "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ee0d8430f964f857f19102fc8f4c314ca849b50d8498025b2d2112c6ea147525")
    lines = out.splitlines()
    assert len(lines) == 773
    assert {ln.split(",")[0] for ln in lines[1:]} == {"0", "1", "2"}
    assert sum(ln.endswith(",512") for ln in lines) == 69  # first sends and resets
    assert run_scenario(parse_scenario_text(text)).cells_dropped == 1304


def _decimal(ns: int) -> str:
    return f"{ns // 10**9}.{ns % 10**9:09d}"


_SWEEP_VALUES = {
    "config": st.sampled_from(["lan", "wan", "WAN"]),
    "sources": st.integers(1, 20).map(str),
    "buffer": st.one_of(st.integers(1, 5000).map(str), st.just("infinite")),
    "policy": st.sampled_from(["ubr", "tail_drop", "epd", "sd", "selective_drop", "fba", "FBA"]),
    "r_fraction": st.one_of(st.integers(1, 99).map(lambda p: f"0.{p:02d}"),
                            st.fractions(0, 1).map(str)),
    "z": st.fractions(Fraction(-1, 2), 3).map(str),
    "duration_s": st.integers(1, 30 * 10**9).map(_decimal),
    "reverse_buffer": st.one_of(st.integers(0, 5000).map(str), st.just("infinite")),
    "link_rate_bps": st.integers(0, 10**10).map(str),
    "link_delay_us": st.integers(0, 10**8).map(lambda ns: f"{ns // 1000}.{ns % 1000:03d}"),
    "mss": st.sampled_from(["0", "40", "512", "1460", "9180"]),
    "rcvwnd": st.integers(1, 10**6).map(str),
    "initial_ssthresh": st.integers(1, 10**6).map(str),
    "tick_ms": st.integers(1, 10**9).map(lambda ns: f"{ns // 10**6}.{ns % 10**6:06d}"),
    "rto_initial_ticks": st.integers(0, 10).map(str),
    "rto_max_ticks": st.integers(0, 1000).map(str),
    "r_cells": st.integers(0, 5000).map(str),
}


# Half the files set a finite buffer and a frame-aware policy, which the
# optional keys alone rarely combine.
_SWEEP_FILES = st.one_of(
    st.fixed_dictionaries({}, optional=_SWEEP_VALUES),
    st.fixed_dictionaries(
        {"buffer": st.integers(201, 5000).map(str),
         "policy": st.sampled_from(["epd", "sd", "fba"])},
        optional={k: v for k, v in _SWEEP_VALUES.items() if k not in ("buffer", "policy")},
    ),
)


def _outcome(build):
    """The Scenario built, or the error a sweep row reports in its place."""
    try:
        return build()
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_SWEEP_FILES)
def test_one_value_sweep_builds_the_scenario_file_scenario(values):
    body = "".join(f"{k} = {v}\n" for k, v in values.items())
    [point] = parse_sweep_text("[sweep]\n" + body).scenarios()
    from_sweep = point.error if isinstance(point, ResultRow) else point
    assert from_sweep == _outcome(lambda: parse_scenario_text("[scenario]\n" + body))
