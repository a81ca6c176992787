"""Command-line surface: single runs, sweeps, built-in grids, cwnd traces.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .engine import EngineStateError, SchedulingError
from .scenario import Scenario, ScenarioError, build_scenario, parse_scenario_file
from .sim import Simulation, run_scenario
from .sweep import emit_results, parse_sweep_file, row_for, run_sweep
from .switches import InvariantError, Policy
from .tcp import ProtocolViolation

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INTERNAL = 2

LAN_BUFFERS = (1000, 2000, 3000)
WAN_BUFFERS = (12000, 24000, 36000)
PAPER_R_FRACTION = Fraction(9, 10)
PAPER_Z = Fraction(4, 5)
PAPER_POLICIES = (  # (policy, r_fraction, z); None takes the policy's default
    (Policy.TAIL_DROP, None, None),
    (Policy.EPD, None, None),
    (Policy.SELECTIVE_DROP, PAPER_R_FRACTION, PAPER_Z),
    (Policy.FBA, PAPER_R_FRACTION, PAPER_Z),
)


def _comparison_grid(configs: tuple[str, ...]) -> list[Scenario]:
    """The comparative experiment grid: each class x sources x buffer x policy."""
    return [
        build_scenario(config=config, sources=n, buffer=k,
                       policy=policy, r_fraction=r_fraction, z=z)
        for config in configs
        for n in (5, 15)
        for k in (LAN_BUFFERS if config == "lan" else WAN_BUFFERS)
        for policy, r_fraction, z in PAPER_POLICIES
    ]


def _zero_loss_grid(configs: tuple[str, ...]) -> list[Scenario]:
    """Infinite-buffer runs that measure the zero-loss buffer requirement."""
    return [
        build_scenario(config=config, sources=n, buffer=None)
        for config in configs
        for n in (5, 15)
    ]


def _configs_arg(value: str) -> tuple[str, ...]:
    if value == "both":
        return ("lan", "wan")
    if value in ("lan", "wan"):
        return (value,)
    raise argparse.ArgumentTypeError(f"unknown config {value!r}")


def positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(value)
    return n


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2 (EXIT_INTERNAL here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ubrsim",
        description="Deterministic simulator of TCP over ATM-UBR switches "
                    "with frame-aware drop policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario file")
    run_p.set_defaults(cmd=_cmd_run)
    run_p.add_argument("scenario", help="scenario file (key = value text)")
    run_p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--audit", action="store_true",
                       help="recheck buffer accounting after every mutation (slower)")

    sweep_p = sub.add_parser("sweep", help="execute the cross product of a sweep file")
    sweep_p.set_defaults(cmd=_cmd_sweep)
    sweep_p.add_argument("sweep", help="sweep file with value lists to cross")
    sweep_p.add_argument("-o", "--output", default=None)
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_p.add_argument("--parallel", type=positive_int, default=1, metavar="N",
                         help="independent runs to execute concurrently")

    for names, grid, help_text in (
        (("table1",), _zero_loss_grid,
         "zero-loss grid: infinite buffers, 5/15 sources, LAN/WAN"),
        (("table2", "table3"), _comparison_grid,
         "comparative grid: all four policies across buffer sizes; "
         "table3 is an alias (read the fairness column)"),
    ):
        t = sub.add_parser(names[0], aliases=names[1:], help=help_text)
        t.set_defaults(cmd=_cmd_grid, grid=grid)
        t.add_argument("--config", type=_configs_arg, default=("lan", "wan"),
                       help="lan, wan, or both (default both)")
        t.add_argument("-o", "--output", default=None)
        t.add_argument("--format", choices=("csv", "json"), default="csv")
        t.add_argument("--parallel", type=positive_int, default=1, metavar="N")

    trace_p = sub.add_parser("trace", help="emit per-connection cwnd traces for one scenario")
    trace_p.set_defaults(cmd=_cmd_trace)
    trace_p.add_argument("scenario")
    trace_p.add_argument("-o", "--output", default=None,
                         help="file prefix (one file per connection); default stdout")
    return parser


def _cmd_run(args) -> int:
    scenario = parse_scenario_file(args.scenario)
    result = run_scenario(scenario, audit=args.audit)
    emit_results([row_for(scenario, result)], args.format, args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = parse_sweep_file(args.sweep)
    print(f"sweep: cross product of {spec.cardinality()} points", file=sys.stderr)
    rows = run_sweep(spec.points(), parallelism=args.parallel, report=sys.stderr)
    emit_results(rows, args.format, args.output)
    return EXIT_OK


def _cmd_grid(args) -> int:
    scenarios = args.grid(args.config)
    print(f"grid: {len(scenarios)} runs", file=sys.stderr)
    rows = run_sweep(scenarios, parallelism=args.parallel, report=sys.stderr)
    emit_results(rows, args.format, args.output)
    return EXIT_OK


def _cmd_trace(args) -> int:
    scenario = parse_scenario_file(args.scenario)
    sim = Simulation(scenario, collect_cwnd=True)
    sim.run()
    if args.output is None:
        for conn, trace in enumerate(sim.cwnd_traces):
            sys.stdout.write(f"# conn {conn}\n")
            for t, cwnd in trace:
                sys.stdout.write(f"{t},{cwnd}\n")
    else:
        for conn, trace in enumerate(sim.cwnd_traces):
            path = f"{args.output}.conn{conn}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                for t, cwnd in trace:
                    fh.write(f"{t},{cwnd}\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.cmd(args)
    except (ScenarioError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InvariantError, SchedulingError, EngineStateError, ProtocolViolation) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
