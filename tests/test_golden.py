"""Golden behaviour digests: short runs must reproduce their RunResults bit for bit.

Each digest is a sha256 of the canonical JSON form of a RunResult (every
field, keys sorted), the same form the benchmark uses. The grid leans on
the cases where symmetric sources make a result hostage to tie-break order:
link delays either side of one cell time (662500/243 ns at 155.52 Mbps),
buffers small enough that one extra queued cell means a drop, and every
drop policy. A digest is only ever rewritten by a change that is meant to
alter behaviour, and such a change says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ubrsim.scenario import build_scenario
from ubrsim.sim import run_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"

TENTH_SECOND = 100_000_000
# Coarse-tick timeouts (3 ticks) would idle lossy runs for most of a
# 0.1 s horizon, so those run on 1 ms and 10 ms ticks to fit several
# loss-and-recovery cycles in.
MS = 1_000_000
FBA_15 = dict(sources=15, buffer=1000, policy="fba",
              r_fraction=Fraction(9, 10), z=Fraction(4, 5), tick_ns=10 * MS)

GRID = {
    "lan15-fba-delay0": dict(FBA_15, link_delay_ns=0),
    "lan15-fba-delay1": dict(FBA_15, link_delay_ns=1),
    "lan15-fba-delay1000": dict(FBA_15, link_delay_ns=1000),
    "lan15-fba-delay2726": dict(FBA_15, link_delay_ns=2726),
    "lan15-fba-delay2727": dict(FBA_15, link_delay_ns=2727),
    "lan15-fba": FBA_15,
    "lan15-sd": dict(FBA_15, policy="selective_drop"),
    "lan5-infinite": dict(sources=5),
    "lan5-tail-k1": dict(sources=5, buffer=1, tick_ns=MS),
    "lan1-tail-k2": dict(sources=1, buffer=2, tick_ns=MS),
    "lan5-reverse-buffer1": dict(sources=5, buffer=1000, reverse_buffer=1, tick_ns=MS),
    "lan1-epd-k2-r1-delay2727": dict(sources=1, buffer=2, policy="epd", r_cells=1,
                                     link_delay_ns=2727, tick_ns=MS),
    "lan5-sd-k3": dict(sources=5, buffer=3, policy="selective_drop", tick_ns=MS),
    "wan5-infinite": dict(config="wan", sources=5),
    "wan15-epd": dict(config="wan", sources=15, buffer=1000, policy="epd", tick_ns=10 * MS),
    # 193-cell frames: many frames are cut in flight on the 5 ms hops at the
    # horizon, and under tail drop many partial frames are discarded.
    "wan5-mss9180-infinite": dict(config="wan", sources=5, mss=9180),
    "lan5-tail-k3000-mss9180": dict(sources=5, buffer=3000, mss=9180, tick_ns=MS),
    # The lockstep point: the 15 sources start together and stay in step,
    # and under every policy nothing is delivered in 2 s. It hangs on
    # equal-time event order more than any other run here.
    **{f"lan15-mss1460-k300-{label}": dict(sources=15, mss=1460, buffer=300, policy=policy,
                                           duration_ns=2_000_000_000)
       for label, policy in (("tail", "tail_drop"), ("epd", "epd"),
                             ("sd", "selective_drop"), ("fba", "fba"))},
}

# Recorded on the seed code, before the fan-out legs became serializer hops.
GOLDEN = {
    "lan15-fba-delay0": "0b2f742f368c61abed03972c6b62eaa236392e026be6cad3b5ecd8efe6f92530",
    "lan15-fba-delay1": "b439755656804ba516bf3212cdbab711e4c51d45dde719f4c3f69a1260c3616d",
    "lan15-fba-delay1000": "2f0b9be88aed8dc8c6bd4e632678722a088a53f72156b86f438cf83398b0bb5a",
    "lan15-fba-delay2726": "da97a2b5133afed086a39875837e96bd64f21233847c8bbd5b391ffebd8dabf5",
    "lan15-fba-delay2727": "47d1fd0ac241bbd14dc0db623e3f957257557c10b01629407b97e83f2f245d07",
    "lan15-fba": "3a8a1dc0d3867000cbcdead5bad34d3a0dce7afc84ce43a4e473fa88fdd65c5c",
    "lan15-sd": "7c65c21ce7bcf8a9c217263a3234abe632cdca3efd959b653561fb2ee1195843",
    "lan5-infinite": "6b515084936e7e84a5139fc6bf9277cd13c0013b8a84526c60a550ec230c16b1",
    "lan5-tail-k1": "46df4b1d41a3552b4fb26af6af2932000185806a7935ef20bc52bd2f9651fa54",
    "lan1-tail-k2": "34933783f2ccf2d01de1e5ebedd94d11d0edb8ec9eb68b4ea6662e2a360820ec",
    "lan5-reverse-buffer1": "01e1867a9d9cb794dcc88d63628a3e50007171cd0a0768ddfb9e1c9a56b0cd98",
    "lan1-epd-k2-r1-delay2727": "63b21c65f4364115720ce5eb9c6b7846135d0d94c9a165d978c18f7169a29f70",
    "lan5-sd-k3": "6931ad12422cd8945826b8c9fe44ae2ebf372879105eb419fc601dbb9d676cd6",
    "wan5-infinite": "6f5e615048bb9ed8e5936f8143b7325e29f46146f579238dd04418cd4af162dc",
    "wan15-epd": "e3258809992b244dd676be70e6e74179d5e39634b174ac0e8fdbcd14d3d4daf9",
    # Recorded before host delivery became one event per frame.
    "wan5-mss9180-infinite": "f7e621d4aff2fb87b2c28ac8d91d9c51d2056c6a2701c5dfc2c00dc6b3346234",
    "lan5-tail-k3000-mss9180": "7d3216006884aa69221b2f664c5efde6552eb9be234ab0e3a5db7e00af15e615",
    # Recorded before tail-drop and EPD ports stopped keeping per-VC counts.
    # The three frame-aware policies give one RunResult: no threshold test
    # drops there, only a full buffer and the rest of its frame, and a
    # RunResult does not name its policy.
    "lan15-mss1460-k300-tail": "c3a49e6f7c2949a7dc672a2d13479796edf16b1c1d2bae28111c46f7711a4136",
    "lan15-mss1460-k300-epd": "d8e5339389d40972c1ba39ba780a8efc605e85817592f40609f2db3398fb7540",
    "lan15-mss1460-k300-sd": "d8e5339389d40972c1ba39ba780a8efc605e85817592f40609f2db3398fb7540",
    "lan15-mss1460-k300-fba": "d8e5339389d40972c1ba39ba780a8efc605e85817592f40609f2db3398fb7540",
}


def digest(result) -> str:
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def golden_run(name: str):
    return run_scenario(build_scenario(**{"duration_ns": TENTH_SECOND, **GRID[name]}))


def test_grid_and_digests_cover_the_same_runs():
    assert set(GOLDEN) == set(GRID)


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_matches_golden_digest(name):
    assert digest(golden_run(name)) == GOLDEN[name]


def _bench_workloads():
    """bench/workloads.py, whose texts the benchmark's digests were recorded on."""
    if "workloads" not in sys.modules:  # bench/tests import it by that name
        spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
        sys.modules["workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["workloads"])
    return sys.modules["workloads"]


# The benchmark reports a changed digest but does not fail on one, so its
# reference digests are checked here, each run at its workload's own horizon
# through the file parsers the CLI uses.
BENCH_DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("label", sorted(BENCH_DIGESTS))
def test_benchmark_workload_matches_its_digest(label):
    workload = _bench_workloads().WORKLOADS[label.split("/")[0]]
    scenario = dict(workload.parse(workload.text()))[label]
    assert digest(run_scenario(scenario)) == BENCH_DIGESTS[label]
