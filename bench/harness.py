"""Measurement loop, output checks and reporting for one workload.

A run repeats whole rounds of the workload until the time budget is spent
(at least two, so every round can be checked against an earlier one).
cpu_s is the best round: the simulator is deterministic, so every round
does the same work, and interference from other processes on a shared
machine only ever adds time. setup_s is the median of many consecutive
set-ups made after the rounds.
With tracing on, untraced and traced rounds alternate, so the tracer's cost
is measured on the same process and inputs.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_run, digest
from tracing import Tracer, layer_metrics
from workloads import Workload, run_round, setup

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 200
MIB = 1 << 20


class RssSampler:
    """Peak resident set size of this process while the block runs.

    A helper thread reads /proc/self/statm every few milliseconds; callers
    add samples at points they know to be peaks. Unlike ru_maxrss, the peak
    starts afresh for each block, so an earlier workload in the same
    process does not carry over (after the caller collects its garbage).
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        with open("/proc/self/statm", "rb") as fh:
            rss = int(fh.read().split()[1]) * self.page
        if rss > self.peak:
            self.peak = rss

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


@dataclass
class Outcome:
    """What one run of a workload measured and found."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    rounds: int = 0
    metrics: dict = field(default_factory=dict)
    trace: dict | None = None


def measure(workload: Workload, seconds: float, trace: bool,
            duration_s: str | None = None) -> Outcome:
    """Run whole rounds of the workload for about `seconds` of wall time."""
    text = workload.text(duration_s)
    outcome = Outcome()
    references: dict = {}
    cpu_s, traced_cpu_s, layers = [], [], []
    cells = events = None
    gc.collect()
    with RssSampler() as rss:
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        while outcome.rounds < 2 or time.perf_counter() - start < seconds:
            traced = trace and len(cpu_s) > len(traced_cpu_s)
            if traced:
                with tracer.installed():
                    rnd = run_round(workload, text, tracer)
                layers.append(layer_metrics(tracer, rnd))
                traced_cpu_s.append(rnd.cpu_s)
            else:
                rnd = run_round(workload, text)
                cpu_s.append(rnd.cpu_s)
                if cells is None:
                    cells, events = rnd.cells, rnd.events
            rss.sample()  # the round's finished Simulations are still alive
            _check_round(workload, rnd, references, outcome)
            del rnd
            gc.collect()  # Simulations hold reference cycles
            outcome.rounds += 1

    if trace:
        names = layers[0].keys()
        outcome.metrics = {name: statistics.median_low([m[name] for m in layers]) for name in names}
        outcome.metrics["trace.overhead_s"] = min(traced_cpu_s) - min(cpu_s)
        outcome.trace = {
            "workload": workload.name,
            "wrapper_cost_ns": {k: [v * 1e9 for v in costs] for k, costs in tracer.overhead.items()},
            "untraced_cpu_s": cpu_s,
            "traced_cpu_s": traced_cpu_s,
            "rounds": layers,
            "spans": tracer.spans,
        }
    else:
        cpu = min(cpu_s)
        outcome.metrics = {
            "cpu_s": cpu,
            "cells_per_s": cells / cpu,
            "events_per_cell": events / cells,
            "peak_rss_mb": rss.peak / MIB,
            "setup_s": statistics.median(_setup_times(workload, text)),
        }
    return outcome


def _setup_times(workload: Workload, text: str) -> list[float]:
    """Thread CPU time of consecutive set-ups, made after the rounds so that
    their garbage does not count toward the workload's peak memory."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.thread_time()
        setup(workload, text)
        times.append(time.thread_time() - t0)
    gc.collect()
    return times


def _check_round(workload: Workload, rnd, references: dict, outcome: Outcome) -> None:
    for run in rnd.runs:
        outcome.attempted += 1
        if run.error is not None:
            problems = [run.error]
        else:
            problems = check_run(run.scenario, run.result, workload.lossless,
                                 references.get(run.label))
            references.setdefault(run.label, run.result)
            outcome.digests.setdefault(run.label, digest(run.result))
        if problems:
            outcome.failed += 1
            outcome.failures.append((run.label, problems))


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_digests(digests: dict) -> None:
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=2)
        fh.write("\n")


def write_trace(trace: dict, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{trace['workload']}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return path
