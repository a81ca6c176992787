"""Command-line surface: single runs, sweeps (the paper's tables among them), cwnd traces.

Exit codes: 0 success (also when the reader of standard output goes away
early, as under `| head`), 1 invalid input, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .engine import InvariantError
from .scenario import parse_scenario_text
from .sim import Simulation, run_scenario
from .sweep import SweepSpec, emit_results, parse_sweep_text, row_for, run_sweep

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INTERNAL = 2


# The paper's tables as sweeps, one per configuration class: table1 the
# zero-loss runs on infinite buffers, table2 every policy over three buffer
# sizes. R and Z take build_scenario's defaults: EPD R = K - 200, and the
# paper's R = 0.9 K and Z = 0.8 for Selective Drop and FBA.
_SOURCES = ("sources", (5, 15))
_POLICIES = ("policy", ("tail_drop", "epd", "selective_drop", "fba"))
TABLES = {
    "table1": {
        c: SweepSpec((("config", (c,)), _SOURCES, ("buffer", (None,)))) for c in ("lan", "wan")
    },
    "table2": {
        c: SweepSpec((("config", (c,)), _SOURCES, ("buffer", buffers), _POLICIES))
        for c, buffers in (("lan", (1000, 2000, 3000)), ("wan", (12000, 24000, 36000)))
    },
}


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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    sweeps = argparse.ArgumentParser(add_help=False, parents=[output])
    sweeps.add_argument("--parallel", type=positive_int, default=1, metavar="N",
                        help="independent runs to execute concurrently")

    run_p = sub.add_parser("run", parents=[output], help="execute one scenario file")
    run_p.set_defaults(cmd=_cmd_run)
    run_p.add_argument("scenario", help="scenario file (key = value text)")

    sweep_p = sub.add_parser("sweep", parents=[sweeps],
                             help="execute the cross product of a sweep file")
    sweep_p.set_defaults(cmd=_cmd_sweep, table=None)
    sweep_p.add_argument("sweep", help="sweep file with value lists to cross")

    for names, help_text in (
        (("table1",), "zero-loss grid: infinite buffers, 5/15 sources, LAN/WAN"),
        (("table2", "table3"), "comparative grid: all four policies across buffer sizes; "
                               "table3 is an alias (read the fairness column)"),
    ):
        t = sub.add_parser(names[0], aliases=names[1:], parents=[sweeps], help=help_text)
        t.set_defaults(cmd=_cmd_sweep, table=TABLES[names[0]])
        t.add_argument("--config", choices=("lan", "wan", "both"), default="both",
                       metavar="CONFIG", help="lan, wan, or both (default both)")

    trace_p = sub.add_parser("trace", help="emit one conn,time_ns,cwnd table for one scenario")
    trace_p.set_defaults(cmd=_cmd_trace)
    trace_p.add_argument("scenario")
    trace_p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    return parser


def _read_input(path: str) -> str:
    """An input file's text: UTF-8, a leading byte-order mark allowed."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc


def _output_stream(destination):
    """A context of the stream a command writes to: destination opened for
    writing, or stdout (None or "-"). Commands open it before their first
    run, so a bad path fails at once."""
    if destination is None or destination == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(destination, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write results to {destination!r}: {exc}") from exc


def _cmd_run(args) -> int:
    scenario = parse_scenario_text(_read_input(args.scenario))
    with _output_stream(args.output) as out:
        emit_results([row_for(scenario, run_scenario(scenario))], args.format, out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """A sweep file, or a built-in table: one sweep per configuration class."""
    if args.table is None:
        specs = [parse_sweep_text(_read_input(args.sweep))]
    else:
        specs = [spec for config, spec in args.table.items() if args.config in (config, "both")]
    expanded = [spec.scenarios() for spec in specs]
    sizes = " + ".join(str(len(points)) for points in expanded)
    print(f"sweep: cross product of {sizes} points", file=sys.stderr)
    with _output_stream(args.output) as out:
        rows = run_sweep([point for points in expanded for point in points],
                         parallelism=args.parallel, report=sys.stderr,
                         columns=specs[0].columns)  # a table's specs add no column
        emit_results(rows, args.format, out, specs[0].columns)
    return EXIT_OK


class CwndTrace(Simulation):
    """A run that records, per connection, (time in ns, cwnd in bytes) at its
    first send decision and at each later one that leaves a different cwnd."""

    def __init__(self, scenario) -> None:
        super().__init__(scenario)
        self.traces = [[] for _ in range(scenario.n_sources)]

    def _send(self, conn: int) -> None:
        super()._send(conn)
        cwnd, trace = self.senders[conn].cwnd, self.traces[conn]
        if not trace or trace[-1][1] != cwnd:
            trace.append((self.engine.now, cwnd))


def _cmd_trace(args) -> int:
    """One conn,time_ns,cwnd table: connection by connection, each in time order."""
    sim = CwndTrace(parse_scenario_text(_read_input(args.scenario)))
    with _output_stream(args.output) as out:
        sim.run()
        out.write("conn,time_ns,cwnd\n" + "".join(
            f"{conn},{t},{cwnd}\n" for conn, trace in enumerate(sim.traces) for t, cwnd in trace))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.cmd(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:
        # The reader closed standard output: nothing is wrong with the input.
        # Point stdout at devnull so the flush at shutdown stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
