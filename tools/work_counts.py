"""Print deterministic work counts of one source tree of ubrsim.

    python3 tools/work_counts.py SRC [--setups N] [--seconds S]

SRC is a directory holding the ubrsim package (a checkout's src/). The
script runs the tree in its own subprocess, with the benchmark workloads
of this checkout's bench/ (read, not changed), and prints one JSON line:

- import_modules: the modules that a fresh `import ubrsim.sweep` adds to
  sys.modules (the package root imports nothing; sweep imports every
  module but cli);
- setup_calls: per benchmark workload, the Python calls (cProfile, builtins
  included, counted per code object) of one bench/workloads.setup,
  averaged over N set-ups made after one unprofiled set-up that fills any
  cache;
- cell_calls: per benchmark workload, the Python calls of Simulation.run
  per injected cell, summed over the workload's scenarios (lan-policies
  has one per drop policy) run for S seconds each.

The simulator is deterministic, so equal trees print equal lines, and a
change that adds set-up or per-cell work shows here when the benchmark's
timings are too noisy to resolve it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Runs in the tree's subprocess: argv holds the set-up count and the run
# length in seconds; writes the package path and the counts.
WORKER = r"""
import sys

before = set(sys.modules)
import ubrsim.sweep

import_modules = len(set(sys.modules) - before)

import cProfile
import json

from ubrsim.sim import Simulation
from workloads import WORKLOADS, setup


def calls(profile):
    # Every call the profiler saw but its own disable(), summed per code
    # object: pstats would merge functions that share a label, such as
    # the dataclass __init__s (all "<string>", line 2).
    return sum(entry.callcount for entry in profile.getstats()
               if "_lsprof.Profiler" not in str(entry.code))


setups, seconds = int(sys.argv[1]), sys.argv[2]
setup_calls, cell_calls = {}, {}
for name, workload in WORKLOADS.items():
    text = workload.text()
    setup(workload, text)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(setups):
        setup(workload, text)
    profile.disable()
    setup_calls[name] = round(calls(profile) / setups, 2)

    sims = [Simulation(scenario) for _, scenario in workload.parse(workload.text(seconds))]
    profile = cProfile.Profile()
    profile.enable()
    cells = sum(sim.run().cells_injected for sim in sims)
    profile.disable()
    cell_calls[name] = round(calls(profile) / cells, 2)

json.dump({
    "package": ubrsim.__file__,
    "counts": {
        "import_modules": import_modules,
        "setup_calls": setup_calls,
        "cell_calls": cell_calls,
    },
}, sys.stdout)
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path, help="src directory of the tree")
    ap.add_argument("--setups", type=int, default=100,
                    help="profiled set-ups per workload (default 100)")
    ap.add_argument("--seconds", default="0.2",
                    help="simulated seconds of each per-cell run (default 0.2)")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(BENCH))))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(args.setups), args.seconds],
        env=env, text=True, capture_output=True,
    )
    if proc.returncode != 0:
        sys.exit(f"work_counts: the run under {src} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr}")
    data = json.loads(proc.stdout)
    if not Path(data["package"]).resolve().is_relative_to(src):
        sys.exit(f"work_counts: {src} imported ubrsim from {data['package']}")
    print(json.dumps(data["counts"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
