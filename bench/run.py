"""Benchmark for ubrsim: fixed workloads, output checks, a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload lan-lossless --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload, one process
    python3 bench/run.py --write-digests             # refresh bench/digests.json

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (and writes the spans to
bench/out/). The simulator is deterministic and takes no seed: --seed is
accepted and printed, and the inputs are the same for every seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's own ubrsim first on the path, and refuse to run without it."""
    package = SRC / "ubrsim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ubrsim

    if Path(ubrsim.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported ubrsim from {ubrsim.__file__}, not from {package}")


def _metric_specs(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(name: str, outcome, units: dict, reference_digests: dict) -> dict:
    """Print one workload's figures and findings; return its metrics with units."""
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"metrics measured {sorted(outcome.metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    print(f"workload {name}: {outcome.rounds} rounds, {outcome.attempted} runs attempted, "
          f"{outcome.failed} failed")
    for metric, unit in units.items():
        print(f"  {metric:34s} {outcome.metrics[metric]:>16.6g} {unit}")
    for label, value in sorted(outcome.digests.items()):
        if label not in reference_digests:
            status = "  (no reference digest)"
        elif reference_digests[label] != value:
            status = f"  MISMATCH, reference {reference_digests[label]}"
        else:
            status = "  matches reference"
        print(f"  digest {label}: {value}{status}")
    for label, problems in outcome.failures[:10]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    return {m: {"value": outcome.metrics[m], "unit": u} for m, u in units.items()}


def main(argv=None) -> int:
    _import_program()
    from harness import load_digests, measure, write_digests, write_trace
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="accepted; the inputs do not depend on it")
    parser.add_argument("--seconds", type=float, default=10.0, help="wall time to spend on each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="run each workload once and rewrite the reference digests")
    args = parser.parse_args(argv)

    if args.write_digests:
        digests = {}
        for workload in WORKLOADS.values():
            outcome = measure(workload, 0, trace=False)
            if outcome.failed:
                print(f"error: {workload.name} failed its checks: {outcome.failures}", file=sys.stderr)
                return 1
            digests.update(outcome.digests)
        write_digests(digests)
        print(json.dumps(digests, indent=2))
        return 0

    trace = bool(args.trace)
    units = _metric_specs(trace)
    reference_digests = load_digests()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"seed {args.seed} (inputs are fixed), {args.seconds:g} s per workload, trace {args.trace}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        gc.collect()
        outcome = measure(WORKLOADS[name], args.seconds, trace)
        reported = _report(name, outcome, units, reference_digests)
        if outcome.trace is not None:
            print(f"  trace written to {write_trace(outcome.trace, args.seed).relative_to(ROOT)}")
        correct = correct and outcome.failed == 0
        attempted += outcome.attempted
        failed += outcome.failed
        if len(names) == 1:
            metrics = reported
        else:
            metrics.update({f"{name}.{m}": v for m, v in reported.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
