"""Gain model, and the checks every input makes when it is built."""
from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from dsasim import (
    GainMatrices,
    PrimaryReceivingPoint,
    SbacConfig,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    TrafficSpec,
    gains_from_positions,
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
    with pytest.raises(ValueError, match=r"^links\[0\]\.tx coincides with links\[0\]\.rx$"):
        gains_from_positions([bad], [])


def test_coincident_tx_and_primary_point_raises():
    link = make_link(0, tx=(0.0, 0.0), rx=(10.0, 0.0))
    point = PrimaryReceivingPoint(id=0, position=(0.0, 0.0), tolerance=1.0)
    with pytest.raises(
        ValueError, match=r"^links\[0\]\.tx coincides with primary_points\[0\]\.position$"
    ):
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
    topology = make_topology(num_providers=2)
    assert dataclasses.replace(topology) == topology  # building it again checks it again


def test_validate_names_link_with_bad_rate_range():
    link = make_topology().links[0]
    with pytest.raises(
        ValueError, match=r"^rate_min, rate and rate_max must satisfy 0 < rate_min <= rate"
    ):
        dataclasses.replace(link, rate_min=2e5, rate_max=1e5)


@pytest.mark.parametrize("target_ber", [0.0, 0.5, 0.7])
def test_validate_flags_target_ber_outside_open_interval(target_ber):
    link = make_topology().links[0]
    with pytest.raises(ValueError, match=rf"^target_ber must be in \(0, 0\.5\), got {target_ber}$"):
        dataclasses.replace(link, target_ber=target_ber)


@pytest.mark.parametrize("name", ["noise", "sinr_target", "bandwidth"])
def test_validate_flags_a_nan_link_field_by_its_key_path(name):
    # a library-built link skips config parsing, which rejects NaN first
    link = make_topology(num_links=3).links[2]
    with pytest.raises(ValueError, match=rf"^{name} must be > 0$"):
        dataclasses.replace(link, **{name: math.nan})


def test_validate_flags_zero_gain_diagonal():
    topology = make_topology()
    g_ss = topology.gains.g_ss.copy()
    g_ss[1, 1] = 0.0
    with pytest.raises(ValueError, match=r"^gains\.g_ss\[1\]\[1\] \(diagonal\) must be > 0$"):
        dataclasses.replace(topology, gains=GainMatrices(g_ss=g_ss, g_ps=topology.gains.g_ps))


def test_validate_flags_dimension_mismatch():
    topology = make_topology(num_links=3)
    gains = GainMatrices(g_ss=np.eye(2), g_ps=np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"^gains\.g_ss shape \(2, 2\) must be \(3, 3\)"):
        dataclasses.replace(topology, gains=gains)


def test_validate_flags_nonpositional_ids():
    topology = make_topology()
    shuffled = (
        dataclasses.replace(topology.links[0], id=1),
        dataclasses.replace(topology.links[1], id=0),
    )
    with pytest.raises(ValueError, match=r"^links\[0\]\.id must equal its position, got 1$"):
        dataclasses.replace(topology, links=shuffled)


# -- every input checks itself when it is built ----------------------------------

CHANNEL = dict(id=0, center_frequency=4e8, bandwidth=1e6)
PROVIDER = dict(id=0, channels=(SpectrumChannel(**CHANNEL),), cost_rate=0.05)
LINK = dataclasses.asdict(make_link(0))
POINT = dict(id=0, position=(1000.0, 1000.0), tolerance=1e-3)
TRAFFIC = dict(arrival_rates=(0.5,), mean_holding_time=1.0, horizon=10.0, seed=0)
RATES = "rate_min, rate and rate_max must satisfy"
POWERS = "power and power_max must satisfy"
FINITE = "must be finite"

# (class, valid fields, field, out-of-range value, the message's start); each
# numeric field is also set to NaN, which must fail with the same message, but
# for the rows that check finiteness: NaN fails the range check made first
FIELD_CHECKS = [
    (SpectrumChannel, CHANNEL, "center_frequency", 0.0, "center_frequency must be > 0"),
    (SpectrumChannel, CHANNEL, "bandwidth", -1e6, "bandwidth must be > 0"),
    (ServiceProvider, PROVIDER, "cost_rate", -0.05, "cost_rate must be >= 0"),
    (SecondaryLink, LINK, "bandwidth", 0.0, "bandwidth must be > 0"),
    (SecondaryLink, LINK, "rate", 1e6, RATES),
    (SecondaryLink, LINK, "rate_min", 0.0, RATES),
    (SecondaryLink, LINK, "rate_max", 1e4, RATES),
    (SecondaryLink, LINK, "power", 2.0, POWERS),
    (SecondaryLink, LINK, "power_max", 0.01, POWERS),
    (SecondaryLink, LINK, "noise", 0.0, "noise must be > 0"),
    (SecondaryLink, LINK, "sinr_target", -1.0, "sinr_target must be > 0"),
    (SecondaryLink, LINK, "target_ber", 0.5, "target_ber must be in (0, 0.5)"),
    (SecondaryLink, LINK, "tx_position", (math.inf, 0.0), "tx_position must be a finite"),
    (SecondaryLink, LINK, "rx_position", (1.0,), "rx_position must be a finite"),
    (PrimaryReceivingPoint, POINT, "tolerance", -1e-3, "tolerance must be >= 0"),
    (PrimaryReceivingPoint, POINT, "position", (0.0, -math.inf), "position must be a finite"),
    (TrafficSpec, TRAFFIC, "arrival_rates", (-0.5,), "arrival_rates must be finite and >= 0"),
    (TrafficSpec, TRAFFIC, "mean_holding_time", 0.0, "mean_holding_time must be finite and > 0"),
    (TrafficSpec, TRAFFIC, "horizon", math.inf, "horizon must be finite and > 0"),
    (TrafficSpec, TRAFFIC, "requested_rate", -1.0, "requested_rate must be finite and > 0"),
    (SbacConfig, {}, "beta1", -0.5, "beta1 must be >= 0"),
    (SbacConfig, {}, "beta2", -0.5, "beta2 must be >= 0"),
    (SbacConfig, {}, "beta3", -0.5, "beta3 must be >= 0"),
    (SbacConfig, {}, "session_minutes", 0.0, "session_minutes must be > 0"),
    # infinity passes each range check above and then breaks the run
    (SpectrumChannel, CHANNEL, "center_frequency", math.inf, f"center_frequency {FINITE}"),
    (SpectrumChannel, CHANNEL, "bandwidth", math.inf, f"bandwidth {FINITE}"),
    (SecondaryLink, LINK, "noise", math.inf, f"noise {FINITE}"),
    (SecondaryLink, LINK, "sinr_target", math.inf, f"sinr_target {FINITE}"),
    (SecondaryLink, LINK, "bandwidth", math.inf, f"bandwidth {FINITE}"),
    (SecondaryLink, {**LINK, "power_max": math.inf}, "power", math.inf, f"power {FINITE}"),
]


def _nan_like(value):
    """NaN in the shape of a field's valid value: NaN entries for a tuple."""
    return tuple(math.nan for _ in value) if isinstance(value, tuple) else math.nan


@pytest.mark.parametrize(
    "cls, valid, name, bad, message", FIELD_CHECKS,
    ids=[
        f"{cls.__name__}.{name}" + ("=inf" if message.endswith(FINITE) else "")
        for cls, _, name, _, message in FIELD_CHECKS
    ],
)
def test_a_bad_field_fails_at_construction_naming_itself(cls, valid, name, bad, message):
    cls(**valid)
    nan = () if message.endswith(FINITE) else (_nan_like(valid.get(name)),)
    for value in (bad, *nan):
        with pytest.raises(ValueError) as exc_info:
            cls(**{**valid, name: value})
        assert str(exc_info.value).startswith(message), (value, str(exc_info.value))


def test_a_provider_fails_at_construction_on_empty_or_duplicate_channels():
    with pytest.raises(ValueError, match=r"^channels must be non-empty$"):
        ServiceProvider(**{**PROVIDER, "channels": ()})
    twice = PROVIDER["channels"] * 2
    with pytest.raises(ValueError, match=r"^channels\[1\]\.id duplicates channel id 0$"):
        ServiceProvider(**{**PROVIDER, "channels": twice})


@pytest.mark.parametrize("speed", [0.0, -3e8, math.nan])
def test_a_topology_fails_at_construction_on_a_bad_propagation_speed(speed):
    with pytest.raises(ValueError, match=r"^propagation_speed must be > 0$"):
        dataclasses.replace(make_topology(), propagation_speed=speed)


@pytest.mark.parametrize("key", ["providers", "links"])
def test_a_topology_fails_at_construction_without_providers_or_links(key):
    # a linkless topology used to pass its checks and then divide by zero
    # on the run's first arrival
    topology = make_topology(with_primary=False)
    fields = {key: ()}
    if key == "links":
        fields["gains"] = GainMatrices(g_ss=np.zeros((0, 0)), g_ps=np.zeros((0, 0)))
    with pytest.raises(ValueError, match=rf"^{key} must be non-empty$"):
        dataclasses.replace(topology, **fields)


@pytest.mark.parametrize("matrix", ["g_ss", "g_ps"])
@pytest.mark.parametrize("entry", [-0.5, math.nan, math.inf])
def test_a_topology_fails_at_construction_on_a_bad_gain(matrix, entry):
    topology = make_topology()
    gains = {"g_ss": topology.gains.g_ss.copy(), "g_ps": topology.gains.g_ps.copy()}
    gains[matrix][0, 1] = entry
    check = "finite" if entry == math.inf else ">= 0"
    with pytest.raises(ValueError, match=rf"^gains entries must be {check}$"):
        dataclasses.replace(topology, gains=GainMatrices(**gains))


@pytest.mark.parametrize("gains, name", [
    ({"g_ss": [[1.0, 0.1], [0.1]], "g_ps": []}, "g_ss"),
    ({"g_ss": [[1.0]], "g_ps": [["abc"]]}, "g_ps"),
    ({"g_ss": {"a": 1.0}, "g_ps": []}, "g_ss"),
])
def test_gain_matrices_fail_at_construction_on_a_matrix_that_is_not_one(gains, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a matrix of numbers$"):
        GainMatrices(**gains)


def test_a_topology_fails_at_construction_on_a_nan_id():
    topology = make_topology()
    point = dataclasses.replace(topology.primary_points[0], id=math.nan)
    with pytest.raises(ValueError, match=r"^primary_points\[0\]\.id must equal its position"):
        dataclasses.replace(topology, primary_points=(point,))


def test_a_built_topology_cannot_be_changed_through_its_gains():
    g_ss = np.array([[1.0, 0.5], [0.25, 1.0]])
    g_ps = np.array([[0.125, 0.0625]])
    topology = make_topology()
    topology = dataclasses.replace(topology, gains=GainMatrices(g_ss=g_ss, g_ps=g_ps))
    for matrix in (topology.gains.g_ss, topology.gains.g_ps):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = -1.0
    # the topology holds copies: the arrays it was built from stay the caller's
    g_ss[1, 1] = 0.0
    assert topology.gains.g_ss[1, 1] == 1.0
    # and so does a pickled copy, as a sweep's worker processes get it
    copy = pickle.loads(pickle.dumps(topology))
    assert copy == topology
    with pytest.raises(ValueError, match="read-only"):
        copy.gains.g_ps[0, 0] = -1.0
