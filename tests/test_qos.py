"""SINR evaluation, the QoS predicate, the processing gain, BER mapping and
the power solver."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsasim import (
    Modulation,
    PrimaryReceivingPoint,
    ber_from_sinr,
    link_arrays,
    link_sinr,
    qos_met,
    sinr_target_from_ber,
)
from dsasim.qos import coupling_scale, group_powers
from conftest import (
    REQUESTED_RATE,
    explicit_gain_topology,
    fixed_point_system,
    jacobi_powers,
    make_link,
    solve_as_one_group,
)
from oracles import exact_solve, solve_min_powers


def unit_pg_link(link_id, sinr_target, noise, power_max=1.0):
    """Link with processing gain exactly 1 (bandwidth == requested rate)."""
    return make_link(
        link_id,
        tx=(0.0, float(link_id)),
        rx=(10.0, float(link_id)),
        bandwidth=REQUESTED_RATE,
        noise=noise,
        sinr_target=sinr_target,
        power_max=power_max,
    )


def two_link_topology(g_ratio, sinr_target, noise=0.1, power_max=1.0, points=(), g_ps=None):
    links = (
        unit_pg_link(0, sinr_target, noise, power_max),
        unit_pg_link(1, sinr_target, noise, power_max),
    )
    g_ss = [[1.0, g_ratio], [g_ratio, 1.0]]
    return explicit_gain_topology(g_ss, links, g_ps=g_ps, points=points)


def brute_force_sinr(g_ss, powers, noise, pg):
    """Independent direct evaluation of the SINR formula with plain loops."""
    n = len(powers)
    mu = []
    for i in range(n):
        interference = 0.0
        for j in range(n):
            if j != i:
                interference += g_ss[i][j] * powers[j]
        mu.append(pg[i] * g_ss[i][i] * powers[i] / (interference + noise[i]))
    return mu


# -- link_sinr and the processing gain ------------------------------------------


def test_single_link_no_interference():
    noise, gain, _, _ = link_arrays([make_link(0, bandwidth=1e6, noise=0.1)], 1e5)
    assert gain.tolist() == [10.0]
    sinr = link_sinr(np.array([[1.0]]), noise, gain, np.array([1.0]))
    assert sinr[0] == pytest.approx(100.0, rel=1e-15)


def test_two_symmetric_links():
    g_ss = np.array([[1.0, 0.5], [0.5, 1.0]])
    sinr = link_sinr(g_ss, np.array([0.5, 0.5]), np.ones(2), np.array([1.0, 1.0]))
    assert sinr == pytest.approx([1.0, 1.0], rel=1e-15)


def test_unspread_link_has_processing_gain_one():
    # no spreading: the link's bandwidth equals the requested rate
    noise, gain, _, _ = link_arrays([make_link(0, bandwidth=1e5, noise=0.1)], 1e5)
    assert gain.tolist() == [1.0]
    sinr = link_sinr(np.array([[1.0]]), noise, gain, np.array([1.0]))
    assert sinr[0] == pytest.approx(10.0, rel=1e-15)


def test_processing_gain_divides_by_the_requested_rate_not_the_link_rate():
    links = [make_link(0, bandwidth=1e6, rate=2e5), make_link(1, bandwidth=5e5, rate=5e4)]
    noise, gain, sinr_target, power_max = link_arrays(links, 1e5)
    assert gain.tolist() == [10.0, 5.0]
    assert noise.tolist() == [link.noise for link in links]
    assert sinr_target.tolist() == [link.sinr_target for link in links]
    assert power_max.tolist() == [link.power_max for link in links]


@pytest.mark.parametrize("seed", range(10))
def test_matches_brute_force_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g_ss = rng.uniform(0.01, 1.0, size=(n, n))
    np.fill_diagonal(g_ss, rng.uniform(0.5, 1.0, size=n))
    noise = rng.uniform(1e-3, 1e-1, size=n)
    gain = rng.uniform(1.0, 10.0, size=n)
    powers = rng.uniform(0.0, 1.0, size=n)
    expected = brute_force_sinr(g_ss, powers, noise, gain)
    assert link_sinr(g_ss, noise, gain, powers) == pytest.approx(expected, rel=1e-12)


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        link_sinr(np.array([[1.0]]), np.zeros(1), np.ones(1), np.array([1.0]))


def test_scale_invariance_with_zero_noise():
    rng = np.random.default_rng(5)
    g_ss = rng.uniform(0.1, 1.0, size=(3, 3))
    gain = np.full(3, 10.0)
    powers = rng.uniform(0.1, 1.0, size=3)
    base = link_sinr(g_ss, np.zeros(3), gain, powers)
    for factor in (0.25, 3.0, 1e4):
        scaled = link_sinr(g_ss, np.zeros(3), gain, factor * powers)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_sinr_monotone_in_own_and_cross_power_and_noise():
    g_ss = np.array([[1.0, 0.4], [0.4, 1.0]])
    noise, gain = np.array([0.2, 0.2]), np.ones(2)
    base = link_sinr(g_ss, noise, gain, np.array([0.5, 0.5]))
    more_own = link_sinr(g_ss, noise, gain, np.array([0.6, 0.5]))
    assert more_own[0] > base[0]
    more_cross = link_sinr(g_ss, noise, gain, np.array([0.5, 0.6]))
    assert more_cross[0] < base[0]
    noisier = link_sinr(g_ss, np.array([0.3, 0.2]), gain, np.array([0.5, 0.5]))
    assert noisier[0] < base[0]


# -- qos_met ------------------------------------------------------------------


def test_qos_clearly_met():
    sinr = link_sinr(np.array([[1.0]]), np.array([0.1]), np.array([10.0]), np.array([1.0]))
    assert sinr[0] == pytest.approx(100.0, rel=1e-15)
    assert qos_met(sinr, np.array([5.0])).tolist() == [True]


def test_qos_boundary_counts_as_satisfied():
    # mu = 1 * 1 * 1.0 / 0.25 = 4.0 exactly, equal to the target
    sinr = link_sinr(np.array([[1.0]]), np.array([0.25]), np.ones(1), np.array([1.0]))
    assert sinr[0] == 4.0
    assert qos_met(sinr, np.array([4.0])).tolist() == [True]


def test_qos_below_target_fails():
    sinr = link_sinr(np.array([[0.9]]), np.ones(1), np.ones(1), np.array([1.0]))  # mu = 0.9
    assert qos_met(sinr, np.array([1.0])).tolist() == [False]


# -- primary budgets in the solve ---------------------------------------------------


def test_interference_boundary_is_satisfied():
    # a budget holds while the group's load is at most it: a tolerance of
    # exactly g_ps @ powers passes, one ulp below it blocks
    topology = two_link_topology(g_ratio=0.5, sinr_target=1.0, noise=0.1)
    g_ps = np.array([[0.5, 0.25]])
    group = (topology.gains.g_ss, *link_arrays(topology.links, REQUESTED_RATE), g_ps)
    load = g_ps @ solve_min_powers(*group, np.array([np.inf])).powers
    at_load = solve_min_powers(*group, load)
    assert at_load.interference_ok
    assert at_load.feasible
    below = solve_min_powers(*group, np.nextafter(load, 0.0))
    assert below.within_power_caps
    assert not below.interference_ok
    assert not below.feasible


def test_interference_zero_powers():
    # a point the group's transmitters do not reach carries no load, so even
    # a zero tolerance holds
    points = (PrimaryReceivingPoint(id=0, position=(50.0, 50.0), tolerance=0.0),)
    topology = two_link_topology(
        g_ratio=0.1, sinr_target=1.0, noise=0.1, points=points, g_ps=[[0.0, 0.0]]
    )
    solution = solve_as_one_group(topology)
    assert (topology.gains.g_ps @ solution.powers).tolist() == [0.0]
    assert solution.interference_ok
    assert solution.feasible


def test_interference_matches_manual_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        row = rng.uniform(0.0, 1.0, size=2)
        tolerance = float(rng.uniform(0.0, 0.3))
        points = (PrimaryReceivingPoint(id=0, position=(50.0, 50.0), tolerance=tolerance),)
        topology = two_link_topology(
            g_ratio=0.1, sinr_target=1.0, noise=0.1, points=points, g_ps=[row.tolist()]
        )
        solution = solve_as_one_group(topology)
        expected = row[0] * solution.powers[0] + row[1] * solution.powers[1]
        assert solution.interference_ok == (expected <= tolerance)


# -- minimal powers -------------------------------------------------------------


def test_decoupled_links_reach_closed_form():
    topology = two_link_topology(g_ratio=0.0, sinr_target=2.0, noise=0.1)
    solution = solve_as_one_group(topology)
    assert solution.feasible
    assert solution.powers == pytest.approx([0.2, 0.2], abs=1e-9)


def test_symmetric_coupled_links_match_linear_solve():
    topology = two_link_topology(g_ratio=0.5, sinr_target=1.0, noise=0.1)
    solution = solve_as_one_group(topology)
    assert solution.feasible
    # oracle: solve (I - F) P = u for F = [[0, .5], [.5, 0]], u = (.1, .1)
    coupling, offset = fixed_point_system(topology)
    oracle = np.linalg.solve(np.eye(2) - coupling, offset)
    assert solution.powers == pytest.approx(oracle, abs=1e-8)
    assert oracle == pytest.approx([0.2, 0.2], abs=1e-12)


def test_strong_coupling_is_infeasible():
    # spectral radius of the coupling matrix is 3 * 0.5 = 1.5 >= 1
    topology = two_link_topology(g_ratio=0.5, sinr_target=3.0, noise=0.1)
    solution = solve_as_one_group(topology)
    assert not solution.feasible
    assert not solution.within_power_caps
    assert np.all(np.isinf(solution.powers))
    assert jacobi_powers(topology) is None


def test_unit_spectral_radius_is_infeasible():
    # F = [[0, 1], [1, 0]]: I - F is singular, and the margin tips it past 1
    topology = two_link_topology(g_ratio=1.0, sinr_target=1.0, noise=0.1)
    solution = solve_as_one_group(topology)
    assert not solution.feasible
    assert np.all(np.isinf(solution.powers))
    assert jacobi_powers(topology) is None


UNIVERSE = 8  # links in the gain matrix that group_powers indexes into


@given(
    distinct=st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=UNIVERSE, unique=True),
    repeats=st.lists(st.integers(0, UNIVERSE - 1), max_size=2),
    cross=st.lists(st.floats(0.0, 0.1), min_size=UNIVERSE**2, max_size=UNIVERSE**2),
    own=st.lists(st.floats(0.05, 1.0), min_size=UNIVERSE, max_size=UNIVERSE),
    sinr_target=st.lists(st.floats(0.1, 20.0), min_size=UNIVERSE, max_size=UNIVERSE),
    gain=st.lists(st.floats(1.0, 10.0), min_size=UNIVERSE, max_size=UNIVERSE),
    noise_exponent=st.lists(st.floats(-16.0, -8.0), min_size=UNIVERSE, max_size=UNIVERSE),
)
@settings(max_examples=200, deadline=None)
# two groups on which the numpy solve, by its pivoting, misses the exact
# powers by 4.2e-12 and 1.8e-12 (relative) while the elimination hits them
@example(distinct=[2, 7], repeats=[], cross=[0.0] * 58 + [0.0625] + [0.0] * 5,
         own=[1.0] * 7 + [0.0546875], sinr_target=[1.0] * UNIVERSE, gain=[1.0] * UNIVERSE,
         noise_exponent=[-8.0, -8.0, -12.0] + [-8.0] * 5)
@example(distinct=[6, 1], repeats=[], cross=[0.0] * 14 + [0.0625] + [0.0] * 49,
         own=[1.0, 0.0625] + [1.0] * 6, sinr_target=[1.0] * UNIVERSE, gain=[1.0] * UNIVERSE,
         noise_exponent=[-8.0] * 6 + [-11.0, -8.0])
def test_group_powers_match_the_dense_solve(
    distinct, repeats, cross, own, sinr_target, gain, noise_exponent
):
    # the elimination on a group of 1 to 8 links of a larger gain matrix
    # against solve_min_powers on the gathered group: the same verdict away
    # from rho(F) = 1, and where feasible the powers of an exact rational
    # solve of the same float system [I - F | u], since the numpy solve
    # carries rounding of its own.  A link may repeat, as when two sessions
    # on one link share a channel index
    ids = (distinct + [distinct[k % len(distinct)] for k in repeats])[:UNIVERSE]
    g_ss = np.array(cross).reshape(UNIVERSE, UNIVERSE)
    np.fill_diagonal(g_ss, own)
    sinr_target, gain = np.array(sinr_target), np.array(gain)
    noise = 10.0 ** np.array(noise_exponent)
    scale = coupling_scale(g_ss, gain, sinr_target)
    size = len(ids)
    group = np.ix_(ids, ids)
    coupling = scale[ids, None] * g_ss[group]
    np.fill_diagonal(coupling, 0.0)
    assume(abs(max(abs(np.linalg.eigvals(coupling))) - 1.0) > 1e-4)

    u = scale * noise
    powers = group_powers(ids, scale.tolist(), u.tolist(), g_ss.reshape(-1).tolist())
    solution = solve_min_powers(g_ss[group], noise[ids], gain[ids], sinr_target[ids],
                                np.full(size, np.inf), np.zeros((0, size)), np.zeros(0))
    if np.all(np.isinf(solution.powers)):
        assert powers is None
    else:
        assert powers is not None
        exact = exact_solve(np.eye(size) - coupling, u[ids])
        np.testing.assert_allclose(powers, exact, rtol=1e-12, atol=0.0)


def test_group_powers_stop_at_the_first_pivot_that_is_not_positive():
    # F = [[0, 1.5], [1.5, 0]]: the second pivot is 1 - 1.5 ** 2 < 0; and a
    # lone link's power is its u
    scale, u, g_ss = [3.0, 3.0], [0.3, 0.3], [1.0, 0.5, 0.5, 1.0]
    assert group_powers([0, 1], scale, u, g_ss) is None
    assert group_powers([1], scale, u, g_ss) == [0.3]


def test_cap_violation_is_infeasible_even_when_convergent():
    # minimal solution 0.2 W exceeds a 0.15 W cap; coupling still contractive
    topology = two_link_topology(g_ratio=0.5, sinr_target=1.0, noise=0.1, power_max=0.15)
    solution = solve_as_one_group(topology)
    assert not solution.feasible
    assert not solution.within_power_caps


def test_feasible_but_interference_blocked():
    g_ps = [[1.0, 1.0]]
    points = (PrimaryReceivingPoint(id=0, position=(5.0, 5.0), tolerance=0.1),)
    topology = two_link_topology(
        g_ratio=0.5, sinr_target=1.0, noise=0.1, points=points, g_ps=g_ps
    )
    solution = solve_as_one_group(topology)  # powers (0.2, 0.2), load 0.4 > 0.1
    assert solution.within_power_caps
    assert not solution.interference_ok
    assert not solution.feasible


def test_solver_soundness_on_random_feasible_instances():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ratio = float(rng.uniform(0.0, 0.6))
        target = float(rng.uniform(0.5, 1.4))
        if ratio * target >= 0.9:
            continue
        topology = two_link_topology(ratio, target, noise=float(rng.uniform(0.01, 0.2)),
                                     power_max=100.0)
        solution = solve_as_one_group(topology)
        assert solution.feasible
        noise, gain, targets, _ = link_arrays(topology.links, REQUESTED_RATE)
        sinr = link_sinr(topology.gains.g_ss, noise, gain, solution.powers)
        assert np.all(qos_met(sinr, targets))


def test_solver_minimality_against_power_grid():
    topology = two_link_topology(g_ratio=0.5, sinr_target=1.0, noise=0.1)
    solution = solve_as_one_group(topology)
    noise, gain, targets, _ = link_arrays(topology.links, REQUESTED_RATE)
    grid = np.linspace(0.0, 1.0, 200)
    for p0 in grid:
        for p1 in grid:
            sinr = link_sinr(topology.gains.g_ss, noise, gain, np.array([p0, p1]))
            if np.all(sinr >= targets):
                assert solution.powers[0] <= p0 + 1e-9
                assert solution.powers[1] <= p1 + 1e-9


def test_iterates_non_decreasing_from_zero():
    topology = two_link_topology(g_ratio=0.45, sinr_target=1.5, noise=0.05)
    coupling, offset = fixed_point_system(topology)
    powers = np.zeros(2)
    for _ in range(60):
        updated = coupling @ powers + offset
        assert np.all(updated >= powers)
        powers = updated
    # the iterates rise to the direct solve's powers from below
    solution = solve_as_one_group(topology)
    assert np.all(powers <= solution.powers)
    assert solution.powers == pytest.approx(jacobi_powers(topology), abs=1e-8)


# -- BER <-> SINR ---------------------------------------------------------------


# Q(sqrt(2)) and Q(1), Q the standard normal tail, from mpmath at 40 digits
# rounded to the nearest double: oracles independent of the math.erfc under test
Q_SQRT2 = 0.07864960352514257
Q_1 = 0.15865525393145705


def test_bpsk_ber_at_unit_sinr():
    assert ber_from_sinr(Modulation.BPSK, 1.0) == pytest.approx(Q_SQRT2, rel=1e-12)


def test_bpsk_ber_at_zero_sinr_is_coin_flip():
    assert ber_from_sinr(Modulation.BPSK, 0.0) == 0.5


@pytest.mark.parametrize("sinr", [-1e-300, -1.0, math.nan])
def test_negative_or_nan_sinr_is_rejected(sinr):
    with pytest.raises(ValueError, match="sinr must be >= 0"):
        ber_from_sinr(Modulation.BPSK, sinr)


def test_ber_decreases_monotonically_to_zero():
    gammas = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
    bers = [ber_from_sinr(Modulation.QPSK, g) for g in gammas]
    assert all(b1 > b2 for b1, b2 in zip(bers, bers[1:]))
    assert bers[-1] < 1e-10


def test_bpsk_target_inversion_recovers_unit_gamma():
    gamma = sinr_target_from_ber(Modulation.BPSK, Q_SQRT2)
    assert gamma == pytest.approx(1.0, rel=1e-6)


def test_qpsk_target_inversion_recovers_unit_gamma():
    gamma = sinr_target_from_ber(Modulation.QPSK, Q_1)
    assert gamma == pytest.approx(1.0, rel=1e-6)


def test_near_half_target_gives_vanishing_gamma():
    gamma = sinr_target_from_ber(Modulation.BPSK, 0.5 - 1e-9)
    assert 0.0 <= gamma < 1e-6


def test_round_trip_identity_across_target_range():
    for target in np.logspace(np.log10(1e-6), np.log10(0.4), 25):
        for modulation in (Modulation.BPSK, Modulation.QPSK):
            gamma = sinr_target_from_ber(modulation, float(target))
            assert ber_from_sinr(modulation, gamma) == pytest.approx(float(target), abs=1e-8)


def test_round_trip_is_relative_down_to_tiny_targets():
    # the returned SINR carries QOS_MARGIN, so its BER never reads above the target
    targets = np.concatenate([np.logspace(-300, np.log10(0.4), 400), 0.5 - np.logspace(-15, -1, 50)])
    for target in targets.tolist():
        for modulation in (Modulation.BPSK, Modulation.QPSK):
            ber = ber_from_sinr(modulation, sinr_target_from_ber(modulation, target))
            assert ber <= target
            assert ber == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("modulation", [Modulation.BPSK, Modulation.QPSK])
def test_one_in_a_trillion_ber_target_is_met(modulation):
    gamma = sinr_target_from_ber(modulation, 1e-12)
    assert ber_from_sinr(modulation, gamma) == pytest.approx(1e-12, rel=1e-9)


def test_modulation_none_is_unsupported():
    with pytest.raises(
        ValueError,
        match=r"^target_ber needs a BPSK or QPSK modulation to derive the SINR target$",
    ):
        sinr_target_from_ber(Modulation.NONE, 1e-3)
    with pytest.raises(
        ValueError, match=r"^modulation must be BPSK or QPSK to map a SINR to a BER$"
    ):
        ber_from_sinr(Modulation.NONE, 1.0)
