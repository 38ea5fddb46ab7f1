"""Scenario document parsing, validation, defaults and round-tripping."""
from __future__ import annotations

import copy
import csv
import dataclasses
import json
import logging
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dsasim import (
    ConfigError,
    Modulation,
    QosConfig,
    SbacConfig,
    Strategy,
    gains_from_positions,
    sinr_target_from_ber,
)
from dsasim.config import SweepSpec, apply_sweep_point, parse_config, serialize_config
from dsasim.runner import run_scenario

from oracles import ber_from_sinr

BASE_DOCUMENT = {
    "topology": {
        "propagation_speed": 3.0e8,
        "path_loss_exponent": 3.0,
        "reference_distance": 1.0,
        "providers": [
            {
                "channels": 4,
                "base_frequency": 4.0e8,
                "channel_spacing": 1.0e6,
                "channel_bandwidth": 1.0e6,
                "cost_rate": 0.05,
            }
        ],
        "links": [
            {
                "tx": [0.0, 0.0],
                "rx": [200.0, 0.0],
                "bandwidth": 1.0e6,
                "rate": 1.0e5,
                "rate_min": 5.0e4,
                "rate_max": 2.0e5,
                "power": 0.1,
                "power_max": 1.0,
                "noise": 1.0e-10,
                "sinr_target": 5.0,
            }
        ],
        "primary_points": [{"position": [500.0, 500.0], "tolerance": 1.0e-3}],
    },
    "traffic": {
        "arrival_rate": 0.5,
        "mean_holding_time": 10.0,
        "horizon": 100.0,
        "seed": 42,
        "requested_rate": 1.0e5,
    },
    "sbac": {"beta1": 0.5, "beta2": 0.3, "beta3": 0.2, "session_minutes": 1.0},
    "strategy": {"kind": "DYNAMIC_SBAC", "physical_checks": False, "channel_reuse": False},
}


def doc(**overrides) -> dict:
    """BASE_DOCUMENT with each dotted key path (list indexes as digits) set
    to its value, or deleted where the value is ``...``."""
    document = copy.deepcopy(BASE_DOCUMENT)
    for dotted, value in overrides.items():
        node = document
        *parents, last = (int(key) if key.isdigit() else key for key in dotted.split("."))
        for key in parents:
            node = node[key]
        if value is ...:
            del node[last]
        else:
            node[last] = value
    return document


def parse(document: dict):
    return parse_config(yaml.safe_dump(document))


def test_minimal_config_parses():
    document = doc()
    document["topology"]["providers"][0]["channels"] = 1
    document["traffic"]["arrival_rate"] = 0.0
    config = parse(document)
    assert len(config.topology.providers) == 1
    assert config.topology.providers[0].num_channels == 1
    assert config.traffic.arrival_rates == (0.0,)
    assert config.strategies == (Strategy.DYNAMIC_SBAC,)


def test_channel_grid_generation():
    config = parse(doc())
    channels = config.topology.providers[0].channels
    assert [ch.center_frequency for ch in channels] == [4.0e8 + k * 1e6 for k in range(4)]
    assert all(ch.bandwidth == 1e6 for ch in channels)


def test_noise_db_converts_to_linear():
    document = doc()
    link = document["topology"]["links"][0]
    del link["noise"]
    link["noise_db"] = -10.0
    config = parse(document)
    assert config.topology.links[0].noise == pytest.approx(0.1)


def test_sinr_target_derived_from_ber():
    document = doc()
    link = document["topology"]["links"][0]
    del link["sinr_target"]
    link["modulation"] = "BPSK"
    link["target_ber"] = 1.0e-3
    config = parse(document)
    # the BER target is a unit of the SINR target: the link keeps the SINR alone
    parsed = config.topology.links[0]
    assert parsed == dataclasses.replace(
        parse(doc()).topology.links[0],
        sinr_target=sinr_target_from_ber(Modulation.BPSK, 1.0e-3),
    )
    assert ber_from_sinr(Modulation.BPSK, parsed.sinr_target) == pytest.approx(1e-3, abs=1e-8)


@pytest.mark.parametrize("target_ber", [0.0, 0.5, 0.7])
@pytest.mark.parametrize("explicit_target", [False, True])
def test_out_of_range_target_ber_names_its_key(target_ber, explicit_target):
    # with an explicit sinr_target too, the two forms conflict before any range check
    document = doc()
    link = document["topology"]["links"][0]
    if not explicit_target:
        del link["sinr_target"]
    link["modulation"] = "BPSK"
    link["target_ber"] = target_ber
    message = (
        r"^topology\.links\[0\]\.sinr_target and topology\.links\[0\]\.target_ber are "
        r"mutually exclusive$"
        if explicit_target
        else rf"^topology\.links\[0\]\.target_ber must be in \(0, 0\.5\), got {target_ber}$"
    )
    with pytest.raises(ConfigError, match=message):
        parse(document)


def test_link_without_any_qos_target_is_rejected():
    document = doc()
    del document["topology"]["links"][0]["sinr_target"]
    with pytest.raises(ConfigError, match="links\\[0\\]"):
        parse(document)


def test_rate_range_violation_names_link():
    document = doc(**{"topology.links": None})
    document["topology"]["links"] = [
        dict(BASE_DOCUMENT["topology"]["links"][0], rate_min=3.0e5, rate=3.0e5, rate_max=2.0e5)
    ]
    with pytest.raises(ConfigError, match=r"^topology\.links\[0\]\.rate_min, rate and rate_max"):
        parse(document)


def test_unknown_key_is_named():
    document = doc()
    document["topology"]["links"][0]["fading"] = True
    with pytest.raises(ConfigError, match="fading"):
        parse(document)
    with pytest.raises(ConfigError, match="document.extra"):
        parse(doc(extra={}))


@pytest.mark.parametrize(
    "key",
    [
        "solver_tolerance", "solver_max_iterations", "solver_patience",
        "use_processing_gain", "min_processing_gain",
    ],
)
def test_removed_solver_knobs_are_unknown_keys(key):
    with pytest.raises(ConfigError, match=f"unknown key strategy.{key}"):
        parse(doc(**{f"strategy.{key}": 1e-9}))


@pytest.mark.parametrize("key", ["spread_unit_hz", "spread_floor", "cost_floor"])
def test_removed_sbac_scale_knobs_are_unknown_keys(key):
    with pytest.raises(ConfigError, match=f"unknown key sbac.{key}"):
        parse(doc(**{f"sbac.{key}": 1.0}))


@pytest.mark.parametrize("key", ["spread_unit_hz", "spread_floor", "cost_floor", "session_minutes"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_sbac_scale_names_its_key(key, value):
    # session_minutes is range-checked; the removed scale knobs are unknown keys
    message = rf"sbac\.{key} must be > 0" if key == "session_minutes" else rf"unknown key sbac\.{key}"
    with pytest.raises(ConfigError, match=message):
        parse(doc(**{f"sbac.{key}": value}))


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError, match="traffic.horizon"):
        parse(doc(**{"traffic.horizon": ...}))


def test_scientific_notation_strings_are_accepted():
    # YAML 1.1 resolves "3.0e8" as a string; the parser coerces it
    text = yaml.safe_dump(doc()).replace("300000000.0", "3.0e8")
    config = parse_config(text)
    assert config.topology.propagation_speed == 3.0e8


def test_defaults_are_logged(caplog):
    document = doc(sbac=..., **{
        "strategy.kind": ...,
        "strategy.physical_checks": ...,
        "topology.links.0.rate_min": ...,
    })
    with caplog.at_level(logging.INFO, logger="dsasim.config"):
        config = parse(document)
    messages = [r.message for r in caplog.records if "defaulted" in r.message]
    assert any("sbac.beta1=0.5" in m for m in messages)
    assert any("strategy.kind" in m for m in messages)
    assert "defaulted topology.links[0].rate_min=100000.0" in messages
    assert "defaulted strategy.physical_checks=False" in messages
    assert config.sbac.beta1 == 0.5
    assert config.topology.links[0].rate_min == 1.0e5
    assert not config.qos.physical_checks
    # every sbac default is SbacConfig's own, not one derived from the traffic
    assert "defaulted sbac.session_minutes=1.0" in messages
    assert config.sbac.session_minutes == 1.0


def test_missing_sbac_section_parses_to_sbac_config_defaults():
    assert parse(doc(sbac=...)).sbac == SbacConfig()


def test_explicit_null_strategy_kind_means_the_default():
    assert parse(doc(**{"strategy.kind": None})).strategies == (Strategy.DYNAMIC_SBAC,)


@pytest.mark.parametrize(
    "key",
    ["traffic.arrival_rate", "traffic.mean_holding_time", "traffic.horizon",
     "traffic.requested_rate"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_number_names_its_key(key, value):
    # a NaN or infinite horizon or arrival rate would never end the arrival stream
    with pytest.raises(ConfigError, match=rf"{key.replace('.', '[.]')} must be finite"):
        parse(doc(**{key: value}))


# Documents that parse_config must reject with a ConfigError naming the key
# path (a regex) instead of another exception, or instead of parsing.
BAD_DOCUMENTS = {
    "nan_rate": ({"traffic.arrival_rate": math.nan}, r"traffic\.arrival_rate must be finite"),
    "nan_horizon": ({"traffic.horizon": math.nan}, r"traffic\.horizon must be finite"),
    "inf_horizon": ({"traffic.horizon": math.inf}, r"traffic\.horizon must be finite"),
    "exponent_1.5": ({"topology.path_loss_exponent": 1.5}, r"topology\.path_loss_exponent"),
    "reference_0": ({"topology.reference_distance": 0}, r"topology\.reference_distance"),
    "g_ss_string": (
        {"topology.gains": {"g_ss": "abc", "g_ps": [[0.5]]}}, r"topology\.gains\.g_ss"
    ),
    "tx_is_rx": (
        {"topology.links.0.rx": [0.0, 0.0]},
        r"topology\.links\[0\]\.tx coincides with links\[0\]\.rx",
    ),
    "tx_on_primary_point": (
        {"topology.links.0.tx": [500.0, 500.0]},
        r"topology\.links\[0\]\.tx coincides with primary_points\[0\]\.position",
    ),
    "target_ber_without_modulation": (
        {"topology.links.0.sinr_target": ..., "topology.links.0.target_ber": 1e-3},
        r"missing required key topology\.links\[0\]\.modulation",
    ),
    "modulation_without_target_ber": (
        {"topology.links.0.modulation": "BPSK"},
        r"topology\.links\[0\]\.modulation needs a topology\.links\[0\]\.target_ber",
    ),
    "sinr_target_and_target_ber": (
        {"topology.links.0.modulation": "QPSK", "topology.links.0.target_ber": 1e-4},
        r"topology\.links\[0\]\.sinr_target and topology\.links\[0\]\.target_ber are "
        r"mutually exclusive",
    ),
    "modulation_none": (
        {"topology.links.0.sinr_target": ..., "topology.links.0.modulation": "NONE",
         "topology.links.0.target_ber": 1e-3},
        r"topology\.links\[0\]\.modulation must be BPSK or QPSK, got 'NONE'",
    ),
    "duplicate_sweep_value": (
        {"sweep": {"parameter": "users", "values": [2, 4, 4.0]}},
        r"sweep\.values\[2\] duplicates values\[1\]",
    ),
    "negative_listed_rate": (
        {"traffic.arrival_rate": [-0.5]}, r"traffic\.arrival_rate\[0\] must be >= 0"
    ),
    "no_strategy_kind": ({"strategy.kind": []}, r"strategy\.kind must name at least one"),
    "users_2.5": ({"sweep": {"parameter": "users", "values": [1, 2.5]}}, r"sweep\.values\[1\]"),
    "users_0": ({"sweep": {"parameter": "users", "values": [0]}}, r"sweep\.values\[0\]"),
    "negative_seed": ({"traffic.seed": -1}, r"traffic\.seed must be an integer >= 0"),
    "negative_beta2": ({"sbac.beta2": -0.5}, r"sbac\.beta2 must be >= 0"),
    "zero_weights": (
        {"sbac.beta1": 0, "sbac.beta2": 0, "sbac.beta3": 0}, r"sbac\.beta1 \+ beta2 \+ beta3"
    ),
    "reuse_without_physical": (
        {"strategy.channel_reuse": True}, r"strategy\.channel_reuse needs physical_checks"
    ),
    # topology invariants, checked once the topology is built
    "negative_noise": ({"topology.links.0.noise": -1}, r"topology\.links\[0\]\.noise must be > 0"),
    "zero_sinr_target": (
        {"topology.links.0.sinr_target": 0}, r"topology\.links\[0\]\.sinr_target must be > 0"
    ),
    "zero_link_bandwidth": (
        {"topology.links.0.bandwidth": 0}, r"topology\.links\[0\]\.bandwidth must be > 0"
    ),
    "power_over_max": (
        {"topology.links.0.power": 2.0}, r"topology\.links\[0\]\.power and power_max must"
    ),
    "negative_power_max": (
        {"topology.links.0.power": ..., "topology.links.0.power_max": -1.0},
        r"topology\.links\[0\]\.power and power_max must",
    ),
    "rate_below_min": (
        {"topology.links.0.rate_min": 3.0e5},
        r"topology\.links\[0\]\.rate_min, rate and rate_max must satisfy",
    ),
    "negative_tolerance": (
        {"topology.primary_points.0.tolerance": -1.0},
        r"topology\.primary_points\[0\]\.tolerance must be >= 0",
    ),
    "negative_cost_rate": (
        {"topology.providers.0.cost_rate": -1.0},
        r"topology\.providers\[0\]\.cost_rate must be >= 0",
    ),
    "zero_channel_bandwidth": (
        {"topology.providers.0.channel_bandwidth": 0},
        r"topology\.providers\[0\]\.channel_bandwidth must be > 0",
    ),
    "zero_base_frequency": (
        {"topology.providers.0.base_frequency": 0},
        r"topology\.providers\[0\]\.base_frequency must be > 0",
    ),
    "negative_spacing": (
        {"topology.providers.0.channel_spacing": -2.0e8},
        r"topology\.providers\[0\]\.channel_spacing puts channels outside",
    ),
    "infinite_spacing": (
        {"topology.providers.0.channel_spacing": 1e308},
        r"topology\.providers\[0\]\.channel_spacing puts channels outside",
    ),
    "listed_channel_bandwidth": (
        {"topology.providers.0": {"channels": [{"center_frequency": 4e8, "bandwidth": -1.0}],
                                  "cost_rate": 0.05}},
        r"topology\.providers\[0\]\.channels\[0\]\.bandwidth must be > 0",
    ),
    "listed_center_frequency": (
        {"topology.providers.0": {"channels": [{"center_frequency": 0.0, "bandwidth": 1e6}],
                                  "cost_rate": 0.05}},
        r"topology\.providers\[0\]\.channels\[0\]\.center_frequency must be > 0",
    ),
    "zero_propagation_speed": (
        {"topology.propagation_speed": 0}, r"topology\.propagation_speed must be > 0"
    ),
    # strategy flags and the sweep, checked by QosConfig and SweepSpec
    "string_physical_checks": (
        {"strategy.physical_checks": "no"}, r"strategy\.physical_checks must be a boolean"
    ),
    "no_sweep_values": (
        {"sweep": {"parameter": "arrival_rate", "values": []}},
        r"sweep\.values must be a non-empty list of numbers",
    ),
    "zero_seeds_per_point": (
        {"sweep": {"parameter": "arrival_rate", "values": [0.5], "seeds_per_point": 0}},
        r"sweep\.seeds_per_point must be a positive integer",
    ),
}


@pytest.mark.parametrize("name", BAD_DOCUMENTS)
def test_bad_document_is_a_config_error_naming_its_key(name):
    overrides, message = BAD_DOCUMENTS[name]
    with pytest.raises(ConfigError, match=message):
        parse(doc(**overrides))


def test_integral_users_sweep_values_parse():
    config = parse(doc(sweep={"parameter": "users", "values": [1, 2.0, 3]}))
    assert config.sweep.values == (1.0, 2.0, 3.0)


def test_negative_arrival_rate_sweep_value_names_its_index():
    with pytest.raises(ConfigError, match=r"sweep\.values\[1\]"):
        parse(doc(sweep={"parameter": "arrival_rate", "values": [0.5, -0.5]}))


def _leaf_paths(node, prefix=()):
    """Key paths of every scalar leaf of a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _float_fields(value):
    """Every float, and every array entry, of a parsed config."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _float_fields(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _float_fields(item)
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, float):
        yield value


LEAF_PATHS = list(_leaf_paths(BASE_DOCUMENT))
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, 1e308, "abc", None, [1.0]]


def _check_leaf(path, value):
    """Parsing BASE_DOCUMENT with the leaf at ``path`` set to ``value`` gives a
    config whose floats are all finite or raises ConfigError; any other
    exception fails.  The config is not run: a valid huge arrival rate is a
    legitimately long run."""
    document = copy.deepcopy(BASE_DOCUMENT)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        config = parse(document)
    except ConfigError:
        return
    assert all(math.isfinite(number) for number in _float_fields(config)), (path, value)


@pytest.mark.parametrize("value", SPECIAL_VALUES, ids=repr)
def test_special_value_at_every_leaf_parses_to_finite_floats_or_is_a_config_error(value):
    for path in LEAF_PATHS:
        _check_leaf(path, value)


@given(
    path=st.sampled_from(LEAF_PATHS),
    value=st.one_of(
        st.floats(),
        st.integers(max_value=-1),
        st.text(max_size=8),
        st.none(),
        st.lists(st.floats(), max_size=3),
    ),
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_leaf_parses_to_finite_floats_or_is_a_config_error(path, value):
    _check_leaf(path, value)


def test_strategy_list_parses_both():
    config = parse(doc(**{"strategy.kind": ["FIXED", "DYNAMIC_SBAC"]}))
    assert config.strategies == (Strategy.FIXED, Strategy.DYNAMIC_SBAC)


def test_per_provider_arrival_rates_must_match_count():
    with pytest.raises(ConfigError, match="arrival_rate"):
        parse(doc(**{"traffic.arrival_rate": [0.5, 0.5]}))


def test_requested_rate_must_fit_every_link():
    with pytest.raises(ConfigError, match="requested_rate"):
        parse(doc(**{"traffic.requested_rate": 9.0e5}))


def test_explicit_gains_bypass_positions():
    document = doc()
    document["topology"]["gains"] = {"g_ss": [[1.0]], "g_ps": [[0.5]]}
    config = parse(document)
    assert config.explicit_gains
    assert config.topology.gains.g_ss[0, 0] == 1.0
    assert config.topology.gains.g_ps[0, 0] == 0.5


def test_sweep_section_parses():
    document = doc(sweep={"parameter": "arrival_rate", "values": [0.1, 0.5, 1.0], "seeds_per_point": 5})
    config = parse(document)
    assert config.sweep.parameter == "arrival_rate"
    assert config.sweep.values == (0.1, 0.5, 1.0)
    assert config.sweep.seeds_per_point == 5


def _two_link_document(**overrides) -> dict:
    document = doc(**overrides)
    second = dict(document["topology"]["links"][0], tx=[0.0, 300.0], rx=[150.0, 400.0])
    document["topology"]["links"].append(second)
    return document


def test_users_sweep_over_explicit_gains_indexes_them(tmp_path):
    # user i is a copy of link i % L, so its gains are that link's given ones
    g_ss = [[1e-4, 2e-7], [3e-7, 5e-5]]
    g_ps = [[1e-9, 4e-9]]
    document = _two_link_document(
        sweep={"parameter": "users", "values": [1, 2, 3, 5]},
        **{"strategy.physical_checks": True, "topology.gains": {"g_ss": g_ss, "g_ps": g_ps}},
    )
    config = parse(document)
    assert run_scenario(config, tmp_path / "out") == 0
    with open(tmp_path / "out" / "results.csv", newline="") as handle:
        points = [row["sweep_value"] for row in csv.DictReader(handle)]
    assert points == ["1.0", "2.0", "3.0", "5.0"]
    for count in (1, 2, 3, 5):
        topology, _ = apply_sweep_point(config, "users", count)
        assert topology.gains.g_ss.tolist() == [
            [g_ss[j % 2][i % 2] for i in range(count)] for j in range(count)
        ]
        assert topology.gains.g_ps.tolist() == [[g_ps[0][i % 2] for i in range(count)]]


@pytest.mark.parametrize("count", [1, 3, 7])  # 1, L and 2L + 1 users
def test_users_sweep_gains_equal_those_of_the_cycled_positions(count):
    document = _two_link_document(
        sweep={"parameter": "users", "values": [count]},
        **{"topology.path_loss_exponent": 3.5, "topology.reference_distance": 2.0},
    )
    third = dict(document["topology"]["links"][0], tx=[-250.0, 80.0], rx=[-40.0, 10.0])
    document["topology"]["links"].append(third)
    config = parse(document)
    links = config.topology.links
    topology, _ = apply_sweep_point(config, "users", count)
    assert topology.links == tuple(
        dataclasses.replace(links[i % len(links)], id=i) for i in range(count)
    )
    expected = gains_from_positions(
        topology.links, topology.primary_points, path_loss_exponent=3.5, reference_distance=2.0
    )
    assert len(topology.primary_points) == 1
    assert np.array_equal(topology.gains.g_ss, expected.g_ss)
    assert np.array_equal(topology.gains.g_ps, expected.g_ps)


def test_unknown_sweep_parameter_rejected():
    with pytest.raises(ConfigError, match="sweep.parameter"):
        parse(doc(sweep={"parameter": "horizon", "values": [1.0]}))


def test_round_trip_is_equivalent():
    document = doc(
        sweep={"parameter": "arrival_rate", "values": [0.1, 1.0], "seeds_per_point": 3},
        **{"strategy.kind": ["FIXED", "DYNAMIC_SBAC"]},
    )
    first = parse(document)
    second = parse_config(serialize_config(first))
    assert second == first


def test_round_trip_with_explicit_gains():
    document = doc()
    document["topology"]["gains"] = {"g_ss": [[0.9]], "g_ps": [[0.25]]}
    first = parse(document)
    second = parse_config(serialize_config(first))
    assert second == first


def maximal_document(explicit_gains: bool) -> dict:
    """A document that sets every field of every object it builds: listed
    and counted channels, dB inputs, both modulations with BER targets,
    per-provider rates, both strategies, reuse and a sweep."""
    document = {
        "topology": {
            "propagation_speed": 2.0e8,
            "path_loss_exponent": 3.5,
            "reference_distance": 2.0,
            "providers": [
                {
                    "channels": [
                        {"center_frequency": 4.0e8, "bandwidth": 1.0e6},
                        {"center_frequency": 4.03e8, "bandwidth": 2.0e6},
                    ],
                    "cost_rate": 0.05,
                },
                {
                    "channels": 3,
                    "base_frequency": 5.0e8,
                    "channel_spacing": 2.0e6,
                    "channel_bandwidth": 1.0e6,
                    "cost_rate": 0.1,
                },
            ],
            "links": [
                {
                    "tx": [0.0, 0.0], "rx": [200.0, 0.0], "bandwidth": 1.0e6,
                    "rate": 1.0e5, "rate_min": 5.0e4, "rate_max": 2.0e5,
                    "power": 0.1, "power_max": 1.0, "noise_db": -100.0,
                    "modulation": "BPSK", "target_ber": 1.0e-3,
                },
                {
                    "tx": [0.0, 1000.0], "rx": [150.0, 1000.0], "bandwidth": 2.0e6,
                    "rate": 1.0e5, "power_max": 0.5, "noise": 1.0e-10,
                    "modulation": "qpsk", "target_ber": 1.0e-4,
                },
            ],
            "primary_points": [{"position": [100.0, 500.0], "tolerance_db": -90.0}],
        },
        "traffic": {
            "arrival_rate": [0.2, 0.3],
            "mean_holding_time": 10.0,
            "horizon": 50.0,
            "seed": 7,
            "requested_rate": 1.0e5,
        },
        "sbac": {"beta1": 0.4, "beta2": 0.4, "beta3": 0.2, "session_minutes": 2.0},
        "strategy": {
            "kind": ["FIXED", "DYNAMIC_SBAC"], "physical_checks": True, "channel_reuse": True
        },
        "sweep": {"parameter": "arrival_rate", "values": [0.1, 0.3], "seeds_per_point": 2},
    }
    if explicit_gains:
        document["topology"]["gains"] = {
            "g_ss": [[1.0, 1.0e-3], [2.0e-3, 0.5]], "g_ps": [[1.0e-6, 2.0e-6]]
        }
    return document


def _field_values(value):
    """``(class, field, value)`` of every dataclass field reachable from ``value``."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            yield type(value).__name__, field.name, item
            yield from _field_values(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _field_values(item)


@pytest.mark.parametrize("explicit_gains", [False, True])
def test_a_maximal_config_round_trips(explicit_gains):
    # the serializer writes every field but id and None ones, and the parser
    # refuses any key outside its literal sets, so a field added to an input
    # fails here, as an unknown key, until the parser reads it too
    config = parse(maximal_document(explicit_gains))
    assert config.explicit_gains is explicit_gains
    assert not [(cls, name) for cls, name, value in _field_values(config) if value is None]
    assert parse_config(serialize_config(config)) == config


def test_the_manifest_config_reparses_to_the_run_config(tmp_path):
    config = parse(maximal_document(explicit_gains=False))
    assert run_scenario(config, tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert parse_config(json.dumps(manifest["config"])) == config


@pytest.mark.parametrize("fields, message", [
    ({"physical_checks": "no"}, r"^physical_checks must be a boolean$"),
    ({"physical_checks": True, "channel_reuse": 1}, r"^channel_reuse must be a boolean$"),
    ({"channel_reuse": True}, r"^channel_reuse needs physical_checks$"),
])
def test_a_qos_config_fails_at_construction_on_a_bad_flag(fields, message):
    with pytest.raises(ValueError, match=message):
        QosConfig(**fields)


@pytest.mark.parametrize("args, message", [
    (("horizon", (1.0,)), r"^parameter must be one of arrival_rate, users; got 'horizon'$"),
    (("users", ()), r"^values must be a non-empty list of numbers$"),
    (("users", (2.0, 2.5)), r"^values\[1\] must be a user count >= 1, got 2\.5$"),
    (("users", (0,)), r"^values\[0\] must be a user count >= 1, got 0$"),
    (("users", (math.nan,)), r"^values\[0\] must be a user count >= 1, got nan$"),
    (("arrival_rate", (0.5, -1.0)), r"^values\[1\] must be an arrival rate >= 0"),
    (("arrival_rate", (math.inf,)), r"^values\[0\] must be an arrival rate >= 0"),
    (("arrival_rate", (0.5,), 0), r"^seeds_per_point must be a positive integer$"),
    (("arrival_rate", (0.5,), 1.0), r"^seeds_per_point must be a positive integer$"),
    # equal values would be one run twice, under one label
    (("arrival_rate", (0.1, 0.1)), r"^values\[1\] duplicates values\[0\]$"),
    (("users", (4, 4.0)), r"^values\[1\] duplicates values\[0\]$"),
])
def test_a_sweep_spec_fails_at_construction_on_a_bad_field(args, message):
    with pytest.raises(ValueError, match=message):
        SweepSpec(*args)


def test_not_yaml_is_a_config_error():
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("foo: [unclosed")
    with pytest.raises(ConfigError):
        parse_config("- just\n- a\n- list\n")


def test_integer_past_the_digit_limit_is_a_config_error():
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("topology: " + "1" * 5000)
