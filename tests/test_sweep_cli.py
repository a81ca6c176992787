"""Sweep expansion, serialization format, and the CLI surface."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim.cli import _build_parser, _comparison_grid, _zero_loss_grid
from ubrsim.scenario import ScenarioError, build_scenario, parse_scenario_text
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
from ubrsim.switches import Policy

TINY = dict(config="lan", sources=2, duration_ns=40_000_000)


def test_sweep_cardinality_matches_cross_product():
    spec = SweepSpec((
        ("config", ("lan",)),
        ("sources", (5, 15)),
        ("buffer", (1000, 2000, 3000)),
        ("policy", ("fba",)),
        ("r_fraction", (Fraction(9, 10), Fraction(1, 2), Fraction(1, 10))),
        ("z", (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))),
    ))
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
    axes = dict(spec.axes)
    assert axes["config"] == ("lan", "wan")
    assert axes["buffer"] == (1000, None)
    assert axes["policy"] == ("ubr", "epd")
    assert spec.cardinality() == 16
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
    assert dict(spec.axes)["duration_ns"] == (250_000_000,)
    assert spec.scenarios()[0].duration_ns == 250_000_000


@pytest.mark.parametrize("text, field", [
    ("z = 1/0", "z"),
    ("sources = x", "sources"),
    ("buffer = big", "buffer"),
    ("sources = ,", "sources"),
    ("duration_s = 0.5, 1", "duration_s"),
])
def test_bad_sweep_value_names_its_key(text, field):
    with pytest.raises(ScenarioError) as err:
        parse_sweep_text(f"[sweep]\n{text}\n")
    assert err.value.field == field


def test_sweep_file_rejects_other_sections():
    with pytest.raises(ScenarioError) as err:
        parse_sweep_text("[sweep]\nbuffer = 1000\n\n[policy]\nkind = epd\n")
    assert err.value.field == "file"
    assert "[policy]" in str(err.value)


@pytest.mark.parametrize("text", ["z = 1/0", "sources = x", "buffer = big", "sources = ,"])
def test_cli_sweep_bad_value_exits_1_naming_the_key(tmp_path, text):
    sweep = tmp_path / "bad.sweep"
    sweep.write_text(f"[sweep]\n{text}\n")
    proc = _cli("sweep", str(sweep))
    assert proc.returncode == 1
    key = text.split()[0]
    assert proc.stderr.startswith(f"error: {key}: "), proc.stderr
    assert "Traceback" not in proc.stderr


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
    spec = SweepSpec((
        ("sources", (2,)),
        ("buffer", (None, 500)),
        ("policy", ("tail_drop", "epd")),
        ("duration_ns", (20_000_000,)),
    ))
    with pytest.raises(ScenarioError):
        spec.scenarios()
    rows = run_sweep(spec.points())
    assert [(r.buffer_cells, r.policy) for r in rows] == [
        (None, "tail_drop"), (None, "epd"), (500, "tail_drop"), (500, "epd"),
    ]
    assert [r.error is None for r in rows] == [True, False, True, True]
    assert rows[1].error == "ScenarioError: buffer: policy EPD requires a finite buffer"
    assert rows[1].efficiency is None


@pytest.mark.parametrize("text, row", [
    ("sources = 0", ("lan", 0, None, "tail_drop", None, None)),
    ("config = WAN\npolicy = EPD\nz = 1/2", ("wan", 5, None, "epd", None, 0.5)),
])
def test_error_row_shows_defaults_and_lower_case_names(text, row):
    [error_row] = parse_sweep_text(text).points()
    assert error_row.error is not None
    assert (error_row.config, error_row.n_sources, error_row.buffer_cells,
            error_row.policy, error_row.r_fraction, error_row.z) == row


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


# ------------------------------------------------------------ grids and files

def test_builtin_grids_are_pinned():
    zero = _zero_loss_grid(("lan", "wan"))
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
    grid = _comparison_grid(("lan", "wan"))
    assert [(s.config_class, s.n_sources, s.buffer_cells, s.policy, s.r_cells, s.z)
            for s in grid] == expected
    # Apart from the policy, every point is its class default with the
    # reverse buffer mirroring the forward one.
    for s in zero + grid:
        plain = build_scenario(config=s.config_class, sources=s.n_sources, buffer=s.buffer_cells)
        assert replace(s, policy=Policy.TAIL_DROP, r_rule=("none",), z=None) == plain
        assert s.policy_config(s.reverse_buffer_cells) == s.policy_config(s.buffer_cells)


def test_table3_is_an_alias_of_table2():
    parser = _build_parser()
    assert parser.parse_args(["table1"]).grid is _zero_loss_grid
    assert parser.parse_args(["table2"]).grid is _comparison_grid
    assert parser.parse_args(["table3"]).grid is _comparison_grid


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
    try:
        return build(), None
    except ScenarioError as exc:
        return None, exc.field


@settings(max_examples=300, deadline=None)
@given(_SWEEP_FILES)
def test_one_value_sweep_builds_the_scenario_file_scenario(values):
    sweep = "[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    policy_keys = {"policy": "kind", "r_fraction": "r_fraction", "z": "z"}
    scenario = "[scenario]\n" + "".join(
        f"{k} = {v}\n" for k, v in values.items() if k not in policy_keys
    ) + "[policy]\n" + "".join(
        f"{policy_keys[k]} = {v}\n" for k, v in values.items() if k in policy_keys
    )
    from_sweep = _outcome(lambda: parse_sweep_text(sweep).scenarios())
    from_file = _outcome(lambda: [parse_scenario_text(scenario)])
    assert from_sweep == from_file
