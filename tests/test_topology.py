"""Gain model and topology validation."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dsasim import (
    GainMatrices,
    GeometryError,
    PrimaryReceivingPoint,
    gains_from_positions,
    validate_topology,
)

from conftest import make_link, make_topology


def _pair(distance: float):
    """Two links whose cross gains are governed by the given tx0->rx1 distance."""
    a = make_link(0, tx=(0.0, 0.0), rx=(10.0, 0.0))
    b = make_link(1, tx=(distance + 10.0, 0.0), rx=(distance, 0.0))
    return a, b


def test_gain_is_one_at_reference_distance():
    link = make_link(0, tx=(0.0, 0.0), rx=(7.0, 0.0))
    gains = gains_from_positions([link], [], path_loss_exponent=3.0, reference_distance=7.0)
    assert gains.g_ss[0, 0] == 1.0


def test_gain_at_twice_reference_distance():
    link = make_link(0, tx=(0.0, 0.0), rx=(2.0, 0.0))
    gains = gains_from_positions([link], [], path_loss_exponent=3.0, reference_distance=1.0)
    assert gains.g_ss[0, 0] == pytest.approx(0.125, abs=1e-15)  # 2 ** -3


def test_gain_clamped_below_reference_distance():
    link = make_link(0, tx=(0.0, 0.0), rx=(0.5, 0.0))
    gains = gains_from_positions([link], [], path_loss_exponent=3.0, reference_distance=1.0)
    assert gains.g_ss[0, 0] == 1.0


def test_gain_far_below_reference_distance_is_clamped_without_overflow():
    # (1 / 1e308) ** -3 overflows a float; the clamp applies first
    link = make_link(0, tx=(0.0, 0.0), rx=(1.0, 0.0))
    gains = gains_from_positions([link], [], path_loss_exponent=3.0, reference_distance=1e308)
    assert gains.g_ss[0, 0] == 1.0


@pytest.mark.parametrize(
    "exponent, reference",
    [(1.5, 1.0), (math.nan, 1.0), (math.inf, 1.0), (3.0, 0.0), (3.0, math.nan), (3.0, math.inf)],
)
def test_bad_path_loss_parameters_raise(exponent, reference):
    link = make_link(0)
    with pytest.raises(ValueError, match="path_loss_exponent|reference_distance"):
        gains_from_positions([link], [], path_loss_exponent=exponent, reference_distance=reference)


def test_coincident_tx_rx_raises():
    bad = make_link(0, tx=(5.0, 5.0), rx=(5.0, 5.0))
    with pytest.raises(GeometryError):
        gains_from_positions([bad], [])


def test_coincident_tx_and_primary_point_raises():
    link = make_link(0, tx=(0.0, 0.0), rx=(10.0, 0.0))
    point = PrimaryReceivingPoint(id=0, position=(0.0, 0.0), tolerance=1.0)
    with pytest.raises(GeometryError):
        gains_from_positions([link], [point])


def test_equal_distances_give_equal_gains():
    a, b = _pair(40.0)
    gains = gains_from_positions([a, b], [])
    # tx of a -> rx of b and tx of b -> rx of a are both 40 m by construction
    d_ab = math.dist(a.tx_position, b.rx_position)
    d_ba = math.dist(b.tx_position, a.rx_position)
    assert d_ab == d_ba
    assert gains.g_ss[1, 0] == gains.g_ss[0, 1]


@pytest.mark.parametrize("seed", range(5))
def test_gains_monotone_in_distance_and_bounded(seed):
    rng = np.random.default_rng(seed)
    distances = np.sort(rng.uniform(0.1, 500.0, size=12))
    gains = []
    for d in distances:
        link = make_link(0, tx=(0.0, 0.0), rx=(float(d), 0.0))
        g = gains_from_positions([link], [], 3.0, 1.0).g_ss[0, 0]
        gains.append(g)
        assert 0.0 < g <= 1.0
    assert all(g1 >= g2 for g1, g2 in zip(gains, gains[1:]))


def test_validate_well_formed_topology():
    assert validate_topology(make_topology(num_providers=2)) == []


def test_validate_names_link_with_bad_rate_range():
    topology = make_topology()
    bad = dataclasses.replace(topology.links[0], rate_min=2e5, rate_max=1e5)
    topology = dataclasses.replace(topology, links=(bad,) + topology.links[1:])
    violations = validate_topology(topology)
    assert len(violations) == 1
    assert violations[0].startswith("topology.links[0].rate_min, rate and rate_max must satisfy")


@pytest.mark.parametrize("target_ber", [0.0, 0.5, 0.7])
def test_validate_flags_target_ber_outside_open_interval(target_ber):
    topology = make_topology()
    bad = dataclasses.replace(topology.links[0], target_ber=target_ber)
    topology = dataclasses.replace(topology, links=(bad,) + topology.links[1:])
    assert validate_topology(topology) == ["topology.links[0].target_ber must be in (0, 0.5)"]


@pytest.mark.parametrize("name", ["noise", "sinr_target", "bandwidth"])
def test_validate_flags_a_nan_link_field_by_its_key_path(name):
    # a library-built topology skips config parsing, which rejects NaN first
    topology = make_topology(num_links=3)
    bad = dataclasses.replace(topology.links[2], **{name: math.nan})
    topology = dataclasses.replace(topology, links=topology.links[:2] + (bad,))
    assert validate_topology(topology) == [f"topology.links[2].{name} must be > 0"]


def test_validate_flags_zero_gain_diagonal():
    topology = make_topology()
    g_ss = topology.gains.g_ss.copy()
    g_ss[1, 1] = 0.0
    topology = dataclasses.replace(
        topology, gains=GainMatrices(g_ss=g_ss, g_ps=topology.gains.g_ps)
    )
    violations = validate_topology(topology)
    assert len(violations) == 1
    assert "diagonal" in violations[0]


def test_validate_flags_dimension_mismatch():
    topology = make_topology(num_links=3)
    gains = GainMatrices(g_ss=np.eye(2), g_ps=np.zeros((1, 3)))
    topology = dataclasses.replace(topology, gains=gains)
    violations = validate_topology(topology)
    assert any("g_ss shape" in v for v in violations)


def test_validate_flags_nonpositional_ids():
    topology = make_topology()
    shuffled = (
        dataclasses.replace(topology.links[0], id=1),
        dataclasses.replace(topology.links[1], id=0),
    )
    topology = dataclasses.replace(topology, links=shuffled)
    violations = validate_topology(topology)
    assert any("position" in v for v in violations)
