"""Scenario defaults, file parsing, and validation messages."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ubrsim.scenario import (
    Scenario,
    ScenarioError,
    build_scenario,
    parse_scenario_text,
)
from ubrsim.switches import Policy


def test_lan_defaults():
    s = build_scenario(config="lan", sources=5)
    assert s.link_rate_bps == 155_520_000
    assert s.link_delay_ns == 5_000
    assert s.rcvwnd == 65535
    assert s.initial_ssthresh == 65535
    assert s.mss == 512
    assert s.tick_ns == 100_000_000
    assert s.duration_ns == 10 * 10**9
    assert s.buffer_cells is None
    assert s.policy is Policy.TAIL_DROP


def test_wan_defaults():
    s = build_scenario(config="wan", sources=15)
    assert s.link_delay_ns == 5_000_000
    assert s.rcvwnd == 600_000
    assert s.duration_ns == 20 * 10**9
    assert s.initial_ssthresh == 600_000


def test_epd_default_threshold_is_buffer_minus_200():
    s = build_scenario(config="lan", sources=5, buffer=1000, policy="epd")
    assert s.r_cells == 800
    assert s.policy_config(1000).r_cells == 800


def test_sd_fba_default_parameters():
    s = build_scenario(config="lan", sources=5, buffer=1000, policy="fba")
    assert s.r_cells == 900
    assert s.z == Fraction(4, 5)
    sd = build_scenario(config="lan", sources=5, buffer=2000, policy="sd")
    assert sd.policy is Policy.SELECTIVE_DROP
    assert sd.r_cells == 1800


def test_r_fraction_floors():
    s = build_scenario(config="lan", sources=5, buffer=999, policy="fba",
                       r_fraction=Fraction(9, 10))
    assert s.r_cells == 899


def test_policy_aliases():
    assert build_scenario(policy="ubr").policy is Policy.TAIL_DROP
    s = build_scenario(buffer=1000, policy="selective_drop")
    assert s.policy is Policy.SELECTIVE_DROP


def test_infinite_buffer_requires_tail_drop():
    with pytest.raises(ScenarioError) as err:
        build_scenario(config="lan", sources=5, buffer=None, policy="epd")
    assert err.value.field == "buffer"


def test_zero_sources_rejected():
    with pytest.raises(ScenarioError) as err:
        build_scenario(sources=0)
    assert err.value.field == "sources"


def test_threshold_must_be_below_capacity():
    with pytest.raises(ScenarioError) as err:
        build_scenario(buffer=100, policy="epd", r_cells=100)
    assert err.value.field == "buffer"
    with pytest.raises(ScenarioError):
        build_scenario(buffer=150, policy="epd")  # default K-200 underflows


def test_reverse_buffer_defaults_to_forward():
    s = build_scenario(buffer=1000, policy="epd")
    assert s.reverse_buffer_cells == 1000
    s = build_scenario(buffer=1000, reverse_buffer=3000, policy="epd")
    assert s.policy_config(s.reverse_buffer_cells).r_cells == 2800


def test_parse_flat_text_with_policy_section():
    s = parse_scenario_text(
        """
        config = lan
        sources = 5
        buffer = 1000
        duration_s = 0.5

        [policy]
        kind = epd
        """
    )
    assert s.n_sources == 5
    assert s.buffer_cells == 1000
    assert s.duration_ns == 500_000_000
    assert s.policy is Policy.EPD
    assert s.r_cells == 800


def test_parse_explicit_section_headers():
    s = parse_scenario_text(
        """
        [scenario]
        config = wan
        sources = 15
        buffer = 12000

        [policy]
        kind = fba
        r_fraction = 0.5
        z = 0.2
        """
    )
    assert s.config_class == "wan"
    assert s.r_cells == 6000
    assert s.z == Fraction(1, 5)


def test_parse_infinite_buffer():
    s = parse_scenario_text("config = lan\nsources = 2\nbuffer = infinite\n")
    assert s.buffer_cells is None


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("config = lan\nbogus_key = 3\n")
    assert err.value.field == "bogus_key"
    with pytest.raises(ScenarioError):
        parse_scenario_text("[policy]\nkind = epd\nnonsense = 1\n")


def test_parse_rejects_sub_nanosecond_delay():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("link_delay_us = 0.0000005\n")
    assert err.value.field == "link_delay_us"


def test_parse_rejects_unknown_section():
    with pytest.raises(ScenarioError):
        parse_scenario_text("[topology]\nnodes = 9\n")


def test_scenarios_are_hashable_and_picklable():
    import pickle

    s = build_scenario(config="lan", sources=5, buffer=1000, policy="fba")
    assert pickle.loads(pickle.dumps(s)) == s
    assert hash(s) == hash(pickle.loads(pickle.dumps(s)))
