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
    assert s.reverse_r_cells == 800


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
    assert str(err.value).startswith("buffer: ")


def test_zero_sources_rejected():
    with pytest.raises(ScenarioError) as err:
        build_scenario(sources=0)
    assert str(err.value).startswith("sources: ")


def test_threshold_must_be_below_capacity():
    with pytest.raises(ScenarioError) as err:
        build_scenario(buffer=100, policy="epd", r_cells=100)
    assert str(err.value).startswith("buffer: ")
    with pytest.raises(ScenarioError):
        build_scenario(buffer=150, policy="epd")  # default K-200 underflows


def test_reverse_buffer_defaults_to_forward():
    s = build_scenario(buffer=1000, policy="epd")
    assert s.reverse_buffer_cells == 1000
    s = build_scenario(buffer=1000, reverse_buffer=3000, policy="epd")
    assert (s.r_cells, s.reverse_r_cells) == (800, 2800)


def test_parse_flat_text_with_policy_section():
    s = parse_scenario_text(
        """
        config = lan
        sources = 5
        buffer = 1000
        duration_s = 0.5
        policy = epd
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
        policy = fba
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
    assert str(err.value).startswith("bogus_key: ")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("policy = epd\nnonsense = 1\n")
    assert str(err.value).startswith("nonsense: ")


def test_parse_rejects_sub_nanosecond_delay():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("link_delay_us = 0.0000005\n")
    assert str(err.value).startswith("link_delay_us: ")


def test_policy_keys_sit_beside_every_other_key():
    # One key table: the drop policy is `policy`, as in build_scenario and
    # a sweep file, with or without the [scenario] header.
    built = build_scenario(sources=2, buffer=1000, policy="fba")
    for header in ("", "[scenario]\n"):
        text = header + "sources = 2\nbuffer = 1000\npolicy = fba\n"
        assert parse_scenario_text(text) == built


def test_parse_rejects_unknown_section():
    with pytest.raises(ScenarioError):
        parse_scenario_text("[topology]\nnodes = 9\n")
    # The drop policy is a key of [scenario]; a [policy] section is unknown.
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("sources = 2\n[policy]\npolicy = fba\n")
    assert str(err.value) == "file: unknown section [policy]"
    # [DEFAULT] is an unknown section like any other: its keys are neither
    # dropped, leaving the default scenario, nor copied into [scenario].
    for text in ("[DEFAULT]\nsources = 3\nduration_s = 0.01\n",
                 "[scenario]\nsources = 2\n[DEFAULT]\nduration_s = 0.01\n"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(text)
        assert str(err.value) == "file: unknown section [DEFAULT]"


def test_scenarios_are_hashable_and_picklable():
    import pickle

    s = build_scenario(config="lan", sources=5, buffer=1000, policy="fba")
    assert pickle.loads(pickle.dumps(s)) == s
    assert hash(s) == hash(pickle.loads(pickle.dumps(s)))


def test_tick_shorter_than_one_frame_on_the_wire_is_rejected():
    # A 2 ns tick let coarse-timer timeouts refill the links faster than
    # line rate until the run ran out of memory; it now fails at build time.
    recorded = dict(config="lan", sources=5, link_delay_ns=2, mss=9180, buffer=3,
                    policy="epd", r_fraction=Fraction(1, 2), duration_ns=20_000_000)
    for tick in (2, 100, 1000):
        with pytest.raises(ScenarioError) as err:
            build_scenario(tick_ns=tick, **recorded)
        assert str(err.value).startswith("tick_ns: ")
    # 193 cells of 662500/243 ns each: 526183.1 ns on the wire.
    with pytest.raises(ScenarioError, match="526184 ns"):
        build_scenario(tick_ns=526_183, **recorded)
    assert build_scenario(tick_ns=526_184, **recorded).tick_ns == 526_184
    # 12 cells for the default 512-byte segment: 32716.05 ns.
    with pytest.raises(ScenarioError):
        build_scenario(tick_ns=32_716)
    build_scenario(tick_ns=32_717)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("tick_ms = 0.000002\n")
    assert str(err.value).startswith("tick_ns: ")


def test_thresholds_are_resolved_at_build_time():
    # The paper's R = 0.9 K and Z = 0.8 are the SD/FBA defaults: spelling
    # them out builds the same Scenario, which a sweep then runs once.
    default = build_scenario(buffer=999, reverse_buffer=50, policy="fba")
    spelled = build_scenario(buffer=999, reverse_buffer=50, policy="fba",
                             r_fraction=Fraction(9, 10), z=Fraction(4, 5))
    assert default == spelled
    assert (default.r_cells, default.reverse_r_cells) == (899, 45)
    assert build_scenario(buffer=1000, policy="epd", r_cells=10).reverse_r_cells == 10
    assert build_scenario(buffer=1000).r_cells is None
    assert build_scenario(buffer=1000).r_fraction is None


@pytest.mark.parametrize("kwargs, field", [
    (dict(buffer=1000, reverse_buffer=None, policy="epd"), "reverse_buffer"),
    (dict(buffer=1000, reverse_buffer=150, policy="epd"), "reverse_buffer"),
    (dict(buffer=1000, policy="sd", z=Fraction(0)), "z"),
    (dict(buffer=1000, policy="fba", r_cells=1000, z=Fraction(-1)), "z"),
    (dict(buffer=1000, policy="epd", r_cells=0), "buffer"),
    (dict(buffer=100, policy="epd"), "buffer"),
    (dict(buffer=1, policy="sd"), "buffer"),
    (dict(buffer=1000, reverse_buffer=1, policy="fba"), "reverse_buffer"),
    (dict(buffer=None, policy="epd"), "buffer"),
    (dict(buffer=1000, policy="epd", r_cells=1000), "buffer"),
    (dict(buffer=None, policy="sd", z=Fraction(0)), "buffer"),  # finite K is checked first
    (dict(buffer=1000, policy="fba", r_cells=0), "buffer"),
])
def test_policy_rule_failures_name_the_key(kwargs, field):
    with pytest.raises(ScenarioError) as err:
        build_scenario(**kwargs)
    assert str(err.value).startswith(f"{field}: ")
    # A threshold the user did not set is named as a default, with its rule.
    message = str(err.value)
    defaulted = "R=" in message and not {"r_cells", "r_fraction"} & kwargs.keys()
    assert ("set r_cells or r_fraction" in message) == defaulted
    if defaulted:
        rule = "K - 200" if kwargs["policy"] == "epd" else "floor(0.9 K)"
        assert f"(R defaulted to {rule}; " in message


@pytest.mark.parametrize("build, message", [
    (lambda: build_scenario(link_delay_ns=-1), "link_delay_ns: must be non-negative, got -1"),
    (lambda: build_scenario(policy="epd", buffer=1000, r_cells=100, r_fraction=Fraction(1, 2)),
     "r_cells: give r_cells or r_fraction, not both"),
    (lambda: parse_scenario_text("[scenario]\nsources\n"), "file: unparseable key=value text"),
], ids=["negative-delay", "r_cells-and-r_fraction", "key-without-value"])
def test_rejection_messages_lead_with_their_field(build, message):
    with pytest.raises(ScenarioError) as err:
        build()
    assert str(err.value).startswith(message)


def test_defaulted_initial_ssthresh_error_names_rcvwnd():
    # initial_ssthresh defaults to rcvwnd, which is the key the user set.
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("mss = 512\nrcvwnd = 1000\n")
    assert str(err.value).startswith("rcvwnd: ")
    assert "initial_ssthresh" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("mss = 512\nrcvwnd = 65535\ninitial_ssthresh = 600\n")
    assert str(err.value).startswith("initial_ssthresh: ")


def test_rto_errors_name_the_key_set():
    with pytest.raises(ScenarioError) as err:
        build_scenario(rto_initial_ticks=0)
    assert str(err.value) == "rto_initial_ticks: must be at least 1, got 0"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("rto_max_ticks = 2\n")
    assert str(err.value) == "rto_max_ticks: must be at least rto_initial_ticks (3), got 2"


def test_comment_before_first_header_parses():
    s = parse_scenario_text("# a note\n; another\n\n[scenario]\nsources = 3\nbuffer = 1000\n"
                            "policy = epd\n")
    assert (s.n_sources, s.r_cells) == (3, 800)
    # Headerless text, a comment first or not, still belongs to [scenario].
    assert parse_scenario_text("# a note\nsources = 4\n").n_sources == 4
    assert parse_scenario_text("sources = 4\npolicy = ubr\n").n_sources == 4
