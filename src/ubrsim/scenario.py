"""Scenario construction: the N-source dumbbell configuration and its knobs.

The topology is fixed: N source hosts feed switch A, one bottleneck link
joins switch A to switch B, and N destination hosts hang off switch B.
Acks ride the reverse path through the same switches. Everything else is a
named scalar with a LAN or WAN default, overridable per scenario file.

KEYS is the one vocabulary of run input: it maps each key of a scenario
file, and each key a sweep file crosses, to its build_scenario parameter
and value parser, and every Scenario is built and validated by
build_scenario.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from fractions import Fraction

from .engine import NS_PER_MS, NS_PER_SEC, NS_PER_US
from .switches import Policy, PolicyConfig


class ScenarioError(ValueError):
    """Invalid scenario input; carries the offending field name."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


_POLICY_ALIASES = {
    "ubr": Policy.TAIL_DROP,
    "tail_drop": Policy.TAIL_DROP,
    "epd": Policy.EPD,
    "sd": Policy.SELECTIVE_DROP,
    "selective_drop": Policy.SELECTIVE_DROP,
    "fba": Policy.FBA,
}

# R derivation rules: ("cells", n) pins an absolute threshold, ("fraction", f)
# scales with the port capacity, ("default",) applies the per-policy rule
# (EPD: K - 200 cells; Selective Drop / FBA: floor(0.9 K)).
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
    r_rule: tuple
    z: Fraction | None
    rto_initial_ticks: int
    rto_max_ticks: int

    @property
    def duration_s(self) -> float:
        return self.duration_ns / NS_PER_SEC

    def resolve_r(self, capacity: int | None) -> int | None:
        """Threshold R in cells for a port of the given capacity."""
        if self.policy is Policy.TAIL_DROP:
            return None
        kind = self.r_rule[0]
        if kind == "cells":
            return self.r_rule[1]
        if capacity is None:
            raise ScenarioError("buffer", f"policy {self.policy.name} requires a finite buffer")
        if kind == "fraction":
            return (self.r_rule[1] * capacity).__floor__()
        if self.policy is Policy.EPD:
            return capacity - EPD_DEFAULT_HEADROOM_CELLS
        return (SD_FBA_DEFAULT_R_FRACTION * capacity).__floor__()

    def policy_config(self, capacity: int | None) -> PolicyConfig:
        return PolicyConfig(self.policy, self.resolve_r(capacity), self.z)

    @property
    def r_cells(self) -> int | None:
        """Threshold on the forward bottleneck port (reporting convenience)."""
        return self.resolve_r(self.buffer_cells)

    @property
    def r_fraction(self) -> float | None:
        r = self.r_cells
        if r is None or self.buffer_cells is None:
            return None
        return r / self.buffer_cells


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
    """Validate parameters and fill class defaults; raises ScenarioError."""
    config = config.lower()
    if config not in CLASS_DEFAULTS:
        raise ScenarioError("config", f"unknown configuration class {config!r} (lan or wan)")
    defaults = CLASS_DEFAULTS[config]
    if link_delay_ns is None:
        link_delay_ns = defaults["link_delay_ns"]
    if rcvwnd is None:
        rcvwnd = defaults["rcvwnd"]
    if duration_ns is None:
        duration_ns = defaults["duration_ns"]
    if initial_ssthresh is None:
        initial_ssthresh = rcvwnd

    if isinstance(policy, str):
        try:
            policy = _POLICY_ALIASES[policy.lower()]
        except KeyError:
            raise ScenarioError("policy", f"unknown policy {policy!r}") from None

    if sources < 1:
        raise ScenarioError("sources", f"need at least one source, got {sources}")
    if mss < 1:
        raise ScenarioError("mss", f"segment size must be positive, got {mss}")
    if rcvwnd < mss:
        raise ScenarioError("rcvwnd", f"receiver window {rcvwnd} below one segment ({mss})")
    if initial_ssthresh < 2 * mss:
        raise ScenarioError(
            "initial_ssthresh", f"must be at least two segments, got {initial_ssthresh}"
        )
    if link_rate_bps <= 0:
        raise ScenarioError("link_rate_bps", f"must be positive, got {link_rate_bps}")
    if link_delay_ns < 0:
        raise ScenarioError("link_delay_ns", f"must be non-negative, got {link_delay_ns}")
    if tick_ns < 1:
        raise ScenarioError("tick_ns", f"must be positive, got {tick_ns}")
    if duration_ns < 1:
        raise ScenarioError("duration_ns", f"must be positive, got {duration_ns}")
    if rto_initial_ticks < 1 or rto_max_ticks < rto_initial_ticks:
        raise ScenarioError("rto_initial_ticks", "need 1 <= initial rto <= max rto")
    if buffer is not None and buffer < 1:
        raise ScenarioError("buffer", f"finite buffer must hold at least one cell, got {buffer}")
    if reverse_buffer is _SAME:
        reverse_buffer = buffer
    if reverse_buffer is not None and reverse_buffer < 1:
        raise ScenarioError("reverse_buffer", f"must hold at least one cell, got {reverse_buffer}")

    if policy is Policy.TAIL_DROP:
        r_rule: tuple = ("none",)
        z = None
    else:
        if buffer is None:
            raise ScenarioError("buffer", f"policy {policy.name} requires a finite buffer")
        if r_cells is not None and r_fraction is not None:
            raise ScenarioError("r_cells", "give r_cells or r_fraction, not both")
        if r_cells is not None:
            r_rule = ("cells", r_cells)
        elif r_fraction is not None:
            if not 0 < r_fraction < 1:
                raise ScenarioError("r_fraction", f"need 0 < fraction < 1, got {r_fraction}")
            r_rule = ("fraction", r_fraction)
        else:
            r_rule = ("default",)
        if policy in (Policy.SELECTIVE_DROP, Policy.FBA):
            if z is None:
                z = DEFAULT_Z
            if z <= 0:
                raise ScenarioError("z", f"cutoff must be positive, got {z}")
        else:
            z = None

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
        r_rule=r_rule,
        z=z,
        rto_initial_ticks=rto_initial_ticks,
        rto_max_ticks=rto_max_ticks,
    )
    # Thresholds must be valid for both directions; validate eagerly so bad
    # combinations fail at build time, not mid-run.
    if policy is not Policy.TAIL_DROP:
        for field_name, cap in (("buffer", buffer), ("reverse_buffer", reverse_buffer)):
            if cap is None:
                raise ScenarioError(field_name, f"policy {policy.name} requires a finite buffer")
            r = scenario.resolve_r(cap)
            if not 0 < r < cap:
                raise ScenarioError(field_name, f"threshold R={r} outside (0, K={cap})")
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


# The one file vocabulary: section -> key -> (build_scenario parameter,
# value parser). Keys are read in this order, so the first bad value in
# it is the one reported.
KEYS = {
    "scenario": {
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
    },
    "policy": {
        "kind": ("policy", str.lower),
        "r_cells": ("r_cells", _integer),
        "r_fraction": ("r_fraction", _fraction),
        "z": ("z", _fraction),
    },
}


def parse_value(key: str, parse, text: str):
    """One file value through its key-table parser; raises ScenarioError(key)."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ScenarioError(key, str(exc)) from None


def read_keys(text: str, table: dict):
    """Yield (key, (parameter, parser), raw value) for each key a key=value
    text sets, in table order. Text before any header belongs to the table's
    first section; an unknown section or key raises ScenarioError."""
    parser = configparser.ConfigParser(interpolation=None)
    if not text.lstrip().startswith("["):
        text = f"[{next(iter(table))}]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError("file", f"unparseable key=value text: {exc}") from None
    for section in parser.sections():
        if section not in table:
            raise ScenarioError("file", f"unknown section [{section}]")
    for section, keys in table.items():
        if not parser.has_section(section):
            continue
        values = dict(parser.items(section, raw=True))
        unknown = values.keys() - keys.keys()
        if unknown:
            raise ScenarioError(sorted(unknown)[0], f"unknown {section} key")
        for key, entry in keys.items():
            if key in values:
                yield key, entry, values[key]


def parse_scenario_text(text: str) -> Scenario:
    """Parse the flat key=value scenario format (policy keys under [policy])."""
    params = {
        param: parse_value(key, parse, raw)
        for key, (param, parse), raw in read_keys(text, KEYS)
    }
    return build_scenario(**params)


def parse_scenario_file(path: str) -> Scenario:
    with io.open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())
