"""Compare two source trees of ubrsim on seeded random short runs.

    python3 tools/same_results.py BASE_SRC CHANGE_SRC --runs N --seed S

BASE_SRC and CHANGE_SRC are directories holding the ubrsim package (a
checkout's src/). The script draws N short scenarios from seed S: LAN
and WAN, 1 to 15 sources, every drop policy, each under one of its
spellings (its canonical name, the paper's ubr or sd, or EPD in upper
case), buffers from one cell to 3,000, link delays from 0 to 5 ms with
extra weight on the tie-sensitive values around one cell time (2725 to
2728 ns), and an MSS of 512 bytes (12 cells, the paper's), 40 (2 cells
with no padding), 1,460 (32 cells) or 9,180 (193 cells). Some
frame-aware runs set the threshold R as a fraction of the buffer K (1
among them), and some of the others as r_cells, from 1 cell to above K;
build_scenario rejects R >= K. About half the runs also set the receiver
window away from its default: below two segments (which build_scenario
rejects), not a multiple of the MSS, 65,535 or 600,000 bytes; and some
set initial_ssthresh. Now and then a draw also takes an input that one
of build_scenario's other checks rejects: fewer than one source, an MSS
below one byte, a tick below one frame time (or just above it), a
duration, rto_initial_ticks or link rate below one, rto_max_ticks below
rto_initial_ticks, a negative link delay, a buffer or reverse buffer of
0, an infinite reverse buffer (rejected under a frame-aware policy),
both r_cells and r_fraction, or an unknown config or policy name; so
about one draw in eight tests which error comes first and its message.
Each tree runs all of them in its own subprocess. A run's outcome is the
sha256 of its RunResult in canonical JSON (every field, keys sorted; the
form of tests/test_golden.py) and, after a space, its row as the CLI
renders it (the data line of sweep.results_csv) or, for a combination
build_scenario rejects or a run that raises, the error's type and
message. Outcomes that differ are printed with their scenario, and the
exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

MS = 1_000_000
# Each drop policy, drawn evenly, and the spellings of it drawn: the
# canonical name, the paper's short name and one name in upper case.
POLICIES = {
    "tail_drop": ("tail_drop", "ubr"),
    "epd": ("epd", "EPD"),
    "selective_drop": ("selective_drop", "sd"),
    "fba": ("fba",),
}
DELAYS_NS = (0, 1, 1000, 2725, 2726, 2727, 2728, 5000, 5 * MS)

# Runs in each tree's subprocess: reads a JSON list of build_scenario
# keyword arguments (fractions as strings) and writes the package path
# and one outcome per scenario. A built point's outcome holds no ": ",
# which marks an error's (see main).
WORKER = r"""
import dataclasses, hashlib, json, sys
from fractions import Fraction

import ubrsim
from ubrsim.scenario import build_scenario
from ubrsim.sim import run_scenario
from ubrsim.sweep import results_csv, row_for


def outcome(kwargs):
    for key in ("r_fraction", "z"):
        if key in kwargs:
            kwargs[key] = Fraction(kwargs[key])
    try:
        scenario = build_scenario(**kwargs)
        result = run_scenario(scenario)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    row = results_csv([row_for(scenario, result)]).splitlines()[1]
    return f"{hashlib.sha256(canonical.encode()).hexdigest()} {row}"


points = json.load(sys.stdin)
json.dump({"package": ubrsim.__file__, "outcomes": [outcome(p) for p in points]}, sys.stdout)
"""


def _rejections(rng: random.Random, frame_cells: int) -> tuple[dict, ...]:
    """One set of inputs per build_scenario check that the main draw never
    fails; the tick is below the frame time of frame_cells cells, or just
    above it, a cell taking 2726.3 ns at the default 155.52 Mbps."""
    return (
        {"sources": rng.randint(-1, 0)},
        {"mss": rng.randint(-1, 0)},
        {"tick_ns": rng.choice((rng.randint(1, 2726 * frame_cells), 2727 * frame_cells))},
        {"duration_ns": rng.randint(-1, 0)},
        {"rto_initial_ticks": rng.randint(-1, 0)},
        {"rto_max_ticks": rng.randint(0, 2)},  # below the default rto_initial_ticks, 3
        {"link_rate_bps": rng.choice((0, -155_520_000))},
        {"link_delay_ns": rng.randint(-5 * MS, -1)},
        {"buffer": 0},
        {"reverse_buffer": rng.choice((0, None))},
        {"r_cells": rng.randint(1, 50), "r_fraction": "1/2"},
        {"config": "xan"},
        {"policy": "red"},
    )


def draw_scenarios(runs: int, seed: int) -> list[dict]:
    """runs build_scenario keyword sets, a pure function of seed."""
    rng = random.Random(seed)
    points = []
    for _ in range(runs):
        policy = rng.choice(tuple(POLICIES))
        point = {
            "config": rng.choice(("lan", "wan")),
            "sources": rng.randint(1, 15),
            "policy": rng.choice(POLICIES[policy]),
            "link_delay_ns": rng.choice(DELAYS_NS + (rng.randint(0, 5 * MS),)),
            "mss": (mss := rng.choice((512, 512, 512, 40, 1460, 9180))),
            "tick_ns": rng.choice((MS, 10 * MS)),
            "duration_ns": rng.randint(5, 40) * MS,
        }
        if policy != "tail_drop" or rng.random() < 0.7:
            point["buffer"] = rng.choice((rng.randint(1, 20), rng.randint(21, 3000)))
        if rng.random() < 0.2:
            point["reverse_buffer"] = rng.randint(1, 200)
        if policy != "tail_drop" and rng.random() < 0.4:
            point["r_fraction"] = rng.choice(("1/2", "4/5", "9/10", "1"))
        elif policy != "tail_drop" and rng.random() < 0.4:
            k = point["buffer"]  # R = K or above is rejected
            point["r_cells"] = rng.choice((rng.randint(1, k), rng.randint(1, k), k,
                                           k + rng.randint(1, 50)))
        if policy in ("selective_drop", "fba") and rng.random() < 0.4:
            point["z"] = rng.choice(("1/2", "4/5", "1", "3/2", "0"))
        if rng.random() < 0.5:
            point["rcvwnd"] = rng.choice((
                rng.randint(1, 2 * mss - 1),  # below two segments: rejected
                rng.randint(2, 64) * mss + rng.randint(1, mss - 1),  # not a multiple of mss
                65535,
                600_000,
            ))
        if rng.random() < 0.2:
            point["initial_ssthresh"] = rng.randint(2 * mss, 64 * mss)
        frame_cells = (mss + 56 + 47) // 48  # 56 framing bytes, 48-byte cell payloads
        for rejection in _rejections(rng, frame_cells):
            if rng.random() < 0.01:
                point.update(rejection)
        points.append(point)
    return points


def start(src: Path, points: list[dict]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", WORKER], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    proc.stdin.write(json.dumps(points))
    proc.stdin.close()
    return proc


def collect(proc: subprocess.Popen, src: Path) -> list[str]:
    out = proc.stdout.read()
    if proc.wait() != 0:
        sys.exit(f"same_results: the run under {src} failed (exit {proc.returncode})")
    data = json.loads(out)
    if not Path(data["package"]).resolve().is_relative_to(src):
        sys.exit(f"same_results: {src} imported ubrsim from {data['package']}")
    return data["outcomes"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", type=Path, help="src directory of the base tree")
    ap.add_argument("change_src", type=Path, help="src directory of the changed tree")
    ap.add_argument("--runs", type=int, default=100, help="number of scenarios (default 100)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the scenario draw (default 0)")
    args = ap.parse_args(argv)
    srcs = [args.base_src.resolve(), args.change_src.resolve()]
    points = draw_scenarios(args.runs, args.seed)
    procs = [start(src, points) for src in srcs]  # the two trees run side by side
    base, change = (collect(proc, src) for proc, src in zip(procs, srcs))
    mismatches = [i for i, (a, b) in enumerate(zip(base, change)) if a != b]
    for i in mismatches:
        print(f"mismatch {i}: {json.dumps(points[i], sort_keys=True)}")
        print(f"  base:   {base[i]}")
        print(f"  change: {change[i]}")
    rejected = sum(": " in o for o in base)
    print(f"{len(points)} runs ({rejected} rejected or failed under the base), "
          f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
