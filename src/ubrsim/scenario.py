"""Scenario construction: the N-source dumbbell configuration and its knobs.

The topology is fixed: N source hosts feed switch A, one bottleneck link
joins switch A to switch B, and N destination hosts hang off switch B.
Acks ride the reverse path through the same switches. Everything else is a
named scalar with a LAN or WAN default, overridable per scenario file.

KEYS is the one vocabulary of run input: it maps each key of a scenario
file, which a sweep file also takes and crosses in KEYS order, to its
build_scenario parameter and value parser. read_keys is the one place a
file value is parsed, and every Scenario is built and validated by
build_scenario, the one place that knows how a point resolves (class
defaults, policy names, R and Z).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction

from .aal5 import cell_time, cells_for_segment
from .engine import NS_PER_MS, NS_PER_SEC, NS_PER_US
from .switches import Policy


class ScenarioError(ValueError):
    """Invalid scenario input; its message leads with the offending field
    name, and it carries, as scenario, the point as build_scenario resolved
    it before a check failed (for reporting only, never run), or None where
    nothing resolved."""

    scenario: Scenario | None = None

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")


# The paper's short names; any other policy name is a Policy member's, in any case.
POLICY_ALIASES = {"ubr": Policy.TAIL_DROP, "sd": Policy.SELECTIVE_DROP}

# Default thresholds: EPD takes R = K - 200 cells, Selective Drop and FBA
# the paper's R = floor(0.9 K) and Z = 0.8.
EPD_DEFAULT_HEADROOM_CELLS = 200
SD_FBA_DEFAULT_R_FRACTION = Fraction(9, 10)
DEFAULT_Z = Fraction(4, 5)

CLASS_DEFAULTS = {
    "lan": {"link_delay_ns": 5 * NS_PER_US, "rcvwnd": 65535, "duration_ns": 10 * NS_PER_SEC},
    "wan": {"link_delay_ns": 5 * NS_PER_MS, "rcvwnd": 600000, "duration_ns": 20 * NS_PER_SEC},
}


@dataclass(frozen=True)
class Scenario:
    config_class: str
    n_sources: int
    link_rate_bps: int
    link_delay_ns: int
    mss: int
    rcvwnd: int
    initial_ssthresh: int
    tick_ns: int
    duration_ns: int
    buffer_cells: int | None
    reverse_buffer_cells: int | None
    policy: Policy
    r_cells: int | None  # threshold R of the forward bottleneck port
    reverse_r_cells: int | None  # R of the reverse (ack) port
    z: Fraction | None
    rto_initial_ticks: int
    rto_max_ticks: int

    @property
    def duration_s(self) -> float:
        return self.duration_ns / NS_PER_SEC

    @property
    def r_fraction(self) -> float | None:
        r, k = self.r_cells, self.buffer_cells
        return None if r is None or k < 1 else r / k


_SAME = object()  # reverse_buffer default: mirror the forward buffer


def build_scenario(
    config: str = "lan",
    sources: int = 5,
    buffer: int | None = None,
    reverse_buffer=_SAME,
    link_rate_bps: int = 155_520_000,
    link_delay_ns: int | None = None,
    mss: int = 512,
    rcvwnd: int | None = None,
    initial_ssthresh: int | None = None,
    tick_ns: int = 100 * NS_PER_MS,
    duration_ns: int | None = None,
    policy: Policy | str = Policy.TAIL_DROP,
    r_cells: int | None = None,
    r_fraction: Fraction | None = None,
    z: Fraction | None = None,
    rto_initial_ticks: int = 3,
    rto_max_ticks: int = 640,
) -> Scenario:
    """Resolve every default of the point, then check it; raises ScenarioError."""
    config = config.lower()
    if config not in CLASS_DEFAULTS:
        raise ScenarioError("config", f"unknown configuration class {config!r} (lan or wan)")
    if isinstance(policy, str):
        name = policy.lower()
        try:
            policy = POLICY_ALIASES[name] if name in POLICY_ALIASES else Policy[name.upper()]
        except KeyError:
            raise ScenarioError("policy", f"unknown policy {policy!r}") from None
    defaults = CLASS_DEFAULTS[config]
    if link_delay_ns is None:
        link_delay_ns = defaults["link_delay_ns"]
    if rcvwnd is None:
        rcvwnd = defaults["rcvwnd"]
    if duration_ns is None:
        duration_ns = defaults["duration_ns"]
    ssthresh_defaulted = initial_ssthresh is None
    if ssthresh_defaulted:
        initial_ssthresh = rcvwnd
    if reverse_buffer is _SAME:
        reverse_buffer = buffer
    if policy not in (Policy.SELECTIVE_DROP, Policy.FBA):
        z = None
    elif z is None:
        z = DEFAULT_Z

    def threshold(k: int | None) -> int | None:
        """R for a port of capacity K; None where the policy has none."""
        if policy is Policy.TAIL_DROP or k is None:
            return None
        if r_cells is not None:
            return r_cells
        if r_fraction is not None:
            return (r_fraction * k).__floor__()
        if policy is Policy.EPD:
            return k - EPD_DEFAULT_HEADROOM_CELLS
        return (SD_FBA_DEFAULT_R_FRACTION * k).__floor__()

    r_fwd, r_rev = threshold(buffer), threshold(reverse_buffer)
    scenario = Scenario(
        config_class=config,
        n_sources=sources,
        link_rate_bps=link_rate_bps,
        link_delay_ns=link_delay_ns,
        mss=mss,
        rcvwnd=rcvwnd,
        initial_ssthresh=initial_ssthresh,
        tick_ns=tick_ns,
        duration_ns=duration_ns,
        buffer_cells=buffer,
        reverse_buffer_cells=reverse_buffer,
        policy=policy,
        r_cells=r_fwd,
        reverse_r_cells=r_rev,
        z=z,
        rto_initial_ticks=rto_initial_ticks,
        rto_max_ticks=rto_max_ticks,
    )
    try:
        if sources < 1:
            raise ScenarioError("sources", f"need at least one source, got {sources}")
        if mss < 1:
            raise ScenarioError("mss", f"segment size must be positive, got {mss}")
        if rcvwnd < mss:
            raise ScenarioError("rcvwnd", f"receiver window {rcvwnd} below one segment ({mss})")
        if initial_ssthresh < 2 * mss:
            if ssthresh_defaulted:  # name the key the user set
                raise ScenarioError(
                    "rcvwnd", f"receiver window {rcvwnd} below two segments ({2 * mss}), the "
                    "least initial_ssthresh, which defaults to the receiver window",
                )
            raise ScenarioError(
                "initial_ssthresh", f"must be at least two segments, got {initial_ssthresh}"
            )
        if link_rate_bps <= 0:
            raise ScenarioError("link_rate_bps", f"must be positive, got {link_rate_bps}")
        if link_delay_ns < 0:
            raise ScenarioError("link_delay_ns", f"must be non-negative, got {link_delay_ns}")
        # A timer that fires faster than a source can put one segment on the
        # wire lets timeouts refill the links faster than line rate. The
        # frame time, frame_cells cell times of num/den ns, is cross-multiplied.
        frame_cells = cells_for_segment(mss)
        num, den = cell_time(link_rate_bps)
        if tick_ns * den < frame_cells * num:
            raise ScenarioError(
                "tick_ns",
                f"tick of {tick_ns} ns is shorter than one {mss}-byte segment's "
                f"{frame_cells} cells on the wire ({-(-frame_cells * num // den)} ns)",
            )
        if duration_ns < 1:
            raise ScenarioError("duration_ns", f"must be positive, got {duration_ns}")
        if rto_initial_ticks < 1:
            raise ScenarioError("rto_initial_ticks",
                                f"must be at least 1, got {rto_initial_ticks}")
        if rto_max_ticks < rto_initial_ticks:
            raise ScenarioError(
                "rto_max_ticks",
                f"must be at least rto_initial_ticks ({rto_initial_ticks}), got {rto_max_ticks}",
            )
        if buffer is not None and buffer < 1:
            raise ScenarioError("buffer",
                                f"finite buffer must hold at least one cell, got {buffer}")
        if reverse_buffer is not None and reverse_buffer < 1:
            raise ScenarioError("reverse_buffer",
                                f"must hold at least one cell, got {reverse_buffer}")
        # Both directions' thresholds are checked here, once, so a bad
        # combination fails at build time, not mid-run; ports trust them.
        if policy is not Policy.TAIL_DROP:
            if r_cells is not None and r_fraction is not None:
                raise ScenarioError("r_cells", "give r_cells or r_fraction, not both")
            if r_fraction is not None and not 0 < r_fraction < 1:
                raise ScenarioError("r_fraction", f"need 0 < fraction < 1, got {r_fraction}")
            for key, k, r in (("buffer", buffer, r_fwd),
                              ("reverse_buffer", reverse_buffer, r_rev)):
                if k is None:
                    raise ScenarioError(key, f"policy {policy.name} requires a finite buffer")
                if policy is not Policy.EPD and z <= 0:
                    raise ScenarioError("z", f"policy {policy.name} needs cutoff Z > 0, got {z}")
                if not 0 < r < k:
                    message = f"policy {policy.name} needs threshold 0 < R < K, got R={r} K={k}"
                    if r_cells is None and r_fraction is None:
                        rule = (f"K - {EPD_DEFAULT_HEADROOM_CELLS}" if policy is Policy.EPD
                                else f"floor({float(SD_FBA_DEFAULT_R_FRACTION)} K)")
                        message += f" (R defaulted to {rule}; set r_cells or r_fraction)"
                    raise ScenarioError(key, message)
    except ScenarioError as exc:
        exc.scenario = scenario
        raise
    return scenario


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}") from None


def _cells(text: str) -> int | None:
    text = text.lower()
    return None if text == "infinite" else _integer(text)


def _scaled(unit: int):
    """Parser of an exact decimal count of `unit`s, as an integer."""

    def parse(text: str) -> int:
        value = _fraction(text) * unit
        if value.denominator != 1:
            raise ValueError(f"{text!r} is finer than the base unit")
        return value.numerator

    return parse


# The one file vocabulary: key -> (build_scenario parameter, value parser).
# Keys are read in this order, so the first bad value in it is the one
# reported, and a sweep crosses them in it.
KEYS = {
    "config": ("config", str.lower),
    "sources": ("sources", _integer),
    "buffer": ("buffer", _cells),
    "reverse_buffer": ("reverse_buffer", _cells),
    "link_rate_bps": ("link_rate_bps", _integer),
    "link_delay_us": ("link_delay_ns", _scaled(NS_PER_US)),
    "mss": ("mss", _integer),
    "rcvwnd": ("rcvwnd", _integer),
    "initial_ssthresh": ("initial_ssthresh", _integer),
    "tick_ms": ("tick_ns", _scaled(NS_PER_MS)),
    "duration_s": ("duration_ns", _scaled(NS_PER_SEC)),
    "rto_initial_ticks": ("rto_initial_ticks", _integer),
    "rto_max_ticks": ("rto_max_ticks", _integer),
    "policy": ("policy", str.lower),
    "r_cells": ("r_cells", _integer),
    "r_fraction": ("r_fraction", _fraction),
    "z": ("z", _fraction),
}


def read_keys(text: str, section: str):
    """Yield (key, build_scenario parameter, values) for each key of KEYS a
    key=value text sets in its one section, in KEYS order; values are the
    comma-separated items, each through the key's parser. Keys before any
    header belong to that section; another section, an unknown key, an
    item that does not parse or a key with no items raises ScenarioError."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        try:
            parser.read_string(text)
        except configparser.MissingSectionHeaderError:  # a key came first
            parser.read_string(f"[{section}]\n" + text)
    except configparser.Error as exc:
        raise ScenarioError("file", f"unparseable key=value text: {exc}") from None
    for other in parser.sections():
        if other != section:
            raise ScenarioError("file", f"unknown section [{other}]")
    raw = dict(parser.items(section, raw=True)) if parser.has_section(section) else {}
    unknown = raw.keys() - KEYS.keys()
    if unknown:
        raise ScenarioError(sorted(unknown)[0], f"unknown {section} key")
    for key, (parameter, parse) in KEYS.items():
        if key not in raw:
            continue
        values = []
        try:
            for item in raw[key].split(","):
                item = item.strip()
                if item:
                    values.append(parse(item))
        except ValueError as exc:
            raise ScenarioError(key, str(exc)) from None
        if not values:
            raise ScenarioError(key, f"no values in {raw[key]!r}")
        yield key, parameter, tuple(values)


def parse_scenario_text(text: str) -> Scenario:
    """Parse the key=value scenario format: one [scenario] section, one value per key."""
    params = {}
    for key, parameter, values in read_keys(text, "scenario"):
        if len(values) > 1:
            raise ScenarioError(key, f"a scenario file takes one value, got {len(values)}; "
                                     "cross several in a sweep file")
        params[parameter] = values[0]
    return build_scenario(**params)
