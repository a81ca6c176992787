"""Fast tests of the benchmark: every output check on a short horizon, a
tampered RunResult failing each check, the tracer's bookkeeping, and the
benchmark's refusal to run without the program's sources.

Run from the repository root: python -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from harness import load_digests, measure
from tracing import TIMED, Tracer, layer_metrics
from workloads import WORKLOADS, run_round
from ubrsim.engine import APP_SEND
from ubrsim.scenario import build_scenario

ROOT = Path(__file__).resolve().parents[2]
SHORT = "0.05"


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    """label -> (scenario, RunResult) for one short round of every workload."""
    out = {}
    for workload in WORKLOADS.values():
        for run in run_round(workload, workload.text(SHORT)).runs:
            assert run.error is None, run.error
            out[run.label] = (run.scenario, run.result)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_every_check_on_short_horizon(name):
    outcome = measure(WORKLOADS[name], 0, trace=False, duration_s=SHORT)
    assert outcome.failures == []
    assert outcome.rounds == 2
    assert outcome.attempted == 2 * len(outcome.digests)
    assert set(outcome.metrics) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(v > 0 for v in outcome.metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    outcome = measure(WORKLOADS[name], 0, trace=True, duration_s=SHORT)
    assert outcome.failures == []  # traced rounds reproduce the untraced RunResults
    assert set(outcome.metrics) == {m["name"] for m in _spec()["per_layer"]}


def test_tracer_counts_agree_with_program_counters():
    workload = WORKLOADS["lan-policies"]
    tracer = Tracer()
    originals = [getattr(owner, attr) for owner, attr, _, _ in TIMED]
    with tracer.installed():
        rnd = run_round(workload, workload.text(SHORT), tracer)
    assert [getattr(owner, attr) for owner, attr, _, _ in TIMED] == originals
    m = layer_metrics(tracer, rnd)
    results = [r.result for r in rnd.runs]
    ports = [p for r in rnd.runs for p in r.sim.ports]
    assert m["aal5.cells_framed"] == sum(r.cells_injected for r in results)
    assert m["switches.arrivals"] == sum(p.cells_out + p.x + p.drops_total() for p in ports)
    assert m["switches.departures"] == sum(p.cells_out for p in ports)
    app_sends = tracer.scheduled[APP_SEND]
    assert (m["engine.events.arrival"] + m["engine.events.departure"]
            + m["engine.events.tick"] + app_sends) == m["engine.events"]
    assert m["switches.drops"] > 0 and m["tcp.timeouts"] == 0  # too short to time out
    assert [s["name"] for s in tracer.spans[:3]] == ["round", "parse", "wire"]


def test_reference_digests_cover_every_run():
    labels = {"lan-lossless", "wan-lossless"} | {
        f"lan-policies/{p}" for p in ("tail_drop", "epd", "selective_drop", "fba")
    }
    assert set(load_digests()) == labels


def test_paper_zero_loss_bounds():
    assert checks.cells_per_segment(512) == 12
    assert checks.cells_per_segment(0) == 2
    assert checks.sum_of_windows_cells(build_scenario("lan", sources=5)) == 7680
    assert checks.sum_of_windows_cells(build_scenario("wan", sources=5)) == 70320


def _tampered(runs, label, check, **changes):
    scenario, result = runs[label]
    assert check(scenario, result) is None
    return scenario, dataclasses.replace(result, **changes)


def _bump_first(values, by=1):
    return (values[0] + by,) + tuple(values[1:])


@pytest.mark.parametrize("label,check,changes", [
    ("lan-lossless", checks.check_conservation,
     lambda r: {"cells_delivered": r.cells_delivered - 1}),
    ("lan-policies/epd", checks.check_conservation,
     lambda r: {"cells_residual": r.cells_residual + 1}),
    ("lan-policies/fba", checks.check_drop_totals,
     lambda r: {"drops_by_vc": _bump_first(r.drops_by_vc)}),
    ("lan-policies/tail_drop", checks.check_drop_totals,
     lambda r: {"drops_by_port": {**r.drops_by_port, "A.fwd": r.drops_by_port["A.fwd"] - 1}}),
    ("lan-lossless", checks.check_efficiency,
     lambda r: {"per_conn_delivered_bytes": _bump_first(r.per_conn_delivered_bytes, -512)}),
    ("lan-policies/selective_drop", checks.check_efficiency,
     lambda r: {"efficiency": r.efficiency * 1.01}),
    ("lan-policies/epd", checks.check_fairness,
     lambda r: {"fairness": r.fairness * 0.99}),
    ("lan-lossless", checks.check_fairness,
     lambda r: {"per_conn_delivered_bytes": _bump_first(r.per_conn_delivered_bytes, 512)}),
    ("lan-policies/fba", checks.check_port_peaks,
     lambda r: {"max_queue_cells": 1001, "max_queue_by_port": {**r.max_queue_by_port, "A.fwd": 1001}}),
    ("lan-policies/tail_drop", checks.check_port_peaks,
     lambda r: {"max_queue_by_port": {**r.max_queue_by_port, "B.rev": 1001}}),
    ("lan-policies/tail_drop", checks.check_drop_reasons,
     lambda r: {"drops_by_reason": {**r.drops_by_reason, "EPD_THRESHOLD": 1}}),
    ("lan-policies/epd", checks.check_drop_reasons,
     lambda r: {"drops_by_reason": {**r.drops_by_reason, "LOAD_RATIO": 1}}),
    ("lan-policies/selective_drop", checks.check_drop_reasons,
     lambda r: {"drops_by_reason": {**r.drops_by_reason, "EPD_THRESHOLD": 1}}),
    ("lan-lossless", checks.check_lossless, lambda r: {"timeouts": 1}),
    ("wan-lossless", checks.check_lossless, lambda r: {"retransmitted_segments": 1}),
    ("lan-lossless", checks.check_lossless, lambda r: {"max_queue_cells": 7681}),
    ("wan-lossless", checks.check_lossless, lambda r: {"max_queue_cells": 70321}),
    ("lan-lossless", checks.check_lossless, lambda r: {"efficiency": 0.97}),
])
def test_tampered_result_fails_its_check(runs, label, check, changes):
    scenario, tampered = _tampered(runs, label, check, **changes(runs[label][1]))
    assert check(scenario, tampered) is not None


def test_check_run_reports_each_failure_by_name(runs):
    scenario, result = runs["lan-lossless"]
    assert checks.check_run(scenario, result, lossless=True, reference=result) == []
    tampered = dataclasses.replace(result, cells_delivered=result.cells_delivered - 1,
                                   timeouts=1)
    failures = checks.check_run(scenario, tampered, lossless=True, reference=result)
    assert [f.split(":")[0] for f in failures] == ["conservation", "lossless", "determinism"]


def test_digest_moves_with_any_field(runs):
    _, result = runs["lan-policies/fba"]
    assert checks.digest(result) == checks.digest(dataclasses.replace(result))
    tampered = dataclasses.replace(result, cells_delivered=result.cells_delivered - 1)
    assert checks.digest(tampered) != checks.digest(result)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lan-lossless", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
