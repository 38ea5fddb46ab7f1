"""Acceptance gate: analytic-oracle agreement plus qualitative trend checks.

Each test covers one criterion at its stated tolerance and prints a single
PASS line with the measured numbers (run with ``pytest -s`` to see them on
success; failures surface the captured line plus the assertion).
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from dsasim import (
    NetworkTopology,
    SbacConfig,
    Strategy,
    TrafficSpec,
    erlang_b,
    gains_from_positions,
    link_sinr,
    run_simulation,
    select_best_channel,
)
from dsasim.qos import ber_from_sinr, sinr_target_from_ber
from dsasim.sbac import LivePool
from dsasim.topology import Modulation

from conftest import (
    REQUESTED_RATE,
    explicit_gain_topology,
    fixed_point_system,
    jacobi_powers,
    make_link,
    make_provider,
    make_topology,
    solve_as_one_group,
)


def report_pass(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def unit_pg_pair(g, gammas, noises, power_max=1e6):
    links = tuple(
        make_link(
            i, tx=(0.0, 30.0 * i), rx=(10.0, 30.0 * i), bandwidth=REQUESTED_RATE,
            noise=float(noises[i]), sinr_target=float(gammas[i]), power_max=power_max,
        )
        for i in range(2)
    )
    return explicit_gain_topology(np.asarray(g, dtype=float), links)


def random_two_link_instance(rng, power_max=1e6, radius_margin=0.1):
    """2-link instance whose coupling spectral radius avoids the slow zone near 1."""
    while True:
        g = np.array(
            [
                [rng.uniform(0.6, 1.0), rng.uniform(0.05, 0.95)],
                [rng.uniform(0.05, 0.95), rng.uniform(0.6, 1.0)],
            ]
        )
        gammas = rng.uniform(0.3, 2.5, size=2)
        noises = rng.uniform(0.01, 0.2, size=2)
        f01 = gammas[0] * g[0, 1] / g[0, 0]
        f10 = gammas[1] * g[1, 0] / g[1, 1]
        radius = math.sqrt(f01 * f10)
        if abs(radius - 1.0) < radius_margin:
            continue
        return unit_pg_pair(g, gammas, noises, power_max), radius


# -- criterion 1: Erlang-B agreement -------------------------------------------------


def test_c1_erlang_b_agreement():
    topology = make_topology(num_providers=1, channels=10)
    holding = 10.0
    details = []
    for offered in (5.0, 1.0, 8.0):
        rate = offered / holding
        horizon = 1.01e5 / rate  # expected arrivals just above the 1e5 floor
        spec = TrafficSpec(
            arrival_rates=(rate,), mean_holding_time=holding, horizon=horizon, seed=202
        )
        started = time.monotonic()
        _, report = run_simulation(topology, spec, Strategy.FIXED)
        elapsed = time.monotonic() - started
        oracle = erlang_b(10, offered)
        difference = abs(report.blocking_probability - oracle)
        assert report.arrivals >= 100_000
        assert difference <= 0.003, (offered, report.blocking_probability, oracle)
        assert elapsed <= 10.0, f"run took {elapsed:.1f}s"
        details.append(f"a={offered}: |sim-oracle|={difference:.6f} in {elapsed:.1f}s")
    report_pass("C1 (Erlang-B agreement, K=10, a in {5,1,8})", "; ".join(details))


# -- criterion 2: power-solver equivalence --------------------------------------------


def test_c2_power_solver_equivalence():
    # qos.group_powers on each instance's two links as one co-channel group
    rng = np.random.default_rng(777)
    feasible_count = 0
    for _ in range(100):
        topology, radius = random_two_link_instance(rng)
        solution = solve_as_one_group(topology)
        assert solution.feasible == (radius < 1.0), (radius, solution)
        if solution.feasible:
            feasible_count += 1
            coupling, offset = fixed_point_system(topology)
            closed_form = np.linalg.solve(np.eye(2) - coupling, offset)
            assert np.all(np.abs(solution.powers - closed_form) < 1e-8)
            assert np.all(np.abs(solution.powers - jacobi_powers(topology)) < 1e-8)

    grid = np.linspace(0.0, 1.0, 200)
    p0_grid, p1_grid = np.meshgrid(grid, grid, indexing="ij")
    rng = np.random.default_rng(888)
    checked = 0
    while checked < 10:
        topology, radius = random_two_link_instance(rng, power_max=1.0)
        if radius >= 0.75:
            continue
        coupling, offset = fixed_point_system(topology)
        closed_form = np.linalg.solve(np.eye(2) - coupling, offset)
        if not 0.05 < closed_form.max() < 0.8:
            continue
        solution = solve_as_one_group(topology)
        assert solution.feasible
        g = topology.gains.g_ss
        first, second = topology.links
        mu0 = g[0, 0] * p0_grid / (g[0, 1] * p1_grid + first.noise)
        mu1 = g[1, 1] * p1_grid / (g[1, 0] * p0_grid + second.noise)
        feasible_mask = (mu0 >= first.sinr_target) & (mu1 >= second.sinr_target)
        assert feasible_mask.any()
        assert solution.powers[0] <= p0_grid[feasible_mask].min() + 1e-9
        assert solution.powers[1] <= p1_grid[feasible_mask].min() + 1e-9
        checked += 1
    report_pass(
        "C2 (power-solver equivalence)",
        f"100 verdicts match spectral radius ({feasible_count} feasible, closed form "
        f"and Jacobi iteration within 1e-8); minimality vs 200x200 grid on {checked} instances",
    )


# -- criterion 3: SINR oracle equivalence ----------------------------------------------


def test_c3_sinr_oracle_equivalence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        g_ss = rng.uniform(0.01, 1.0, size=(n, n))
        np.fill_diagonal(g_ss, rng.uniform(0.5, 1.0, size=n))
        # processing gains: bandwidths in [1e5, 2e6] Hz over rates in [5e4, 2e5] bit/s
        gain = rng.uniform(1e5, 2e6, size=n) / rng.uniform(5e4, 2e5, size=n)
        noise = rng.uniform(1e-4, 0.5, size=n)
        powers = rng.uniform(0.0, 2.0, size=n)
        mu = link_sinr(g_ss, noise, gain, powers)
        for i in range(n):
            interference = 0.0
            for j in range(n):
                if j != i:
                    interference += g_ss[i][j] * powers[j]
            expected = gain[i] * g_ss[i][i] * powers[i] / (interference + noise[i])
            relative = abs(mu[i] - expected) / max(abs(expected), 1e-300)
            worst = max(worst, relative)
            assert relative <= 1e-12
    report_pass("C3 (SINR oracle equivalence)", f"1000 instances, worst rel err {worst:.2e}")


# -- criterion 4: dynamic beats fixed under asymmetric load -----------------------------


def test_c4_dynamic_beats_fixed_under_asymmetric_load():
    topology = make_topology(num_providers=2, channels=10)
    started = time.monotonic()
    fixed_block, dyn_block, fixed_eta, dyn_eta = [], [], [], []
    for seed in range(20):
        spec = TrafficSpec(
            arrival_rates=(1.2, 0.1),  # 12 and 1 Erlangs at 10 s holding
            mean_holding_time=10.0,
            horizon=3000.0,
            seed=seed,
        )
        _, fixed_report = run_simulation(topology, spec, Strategy.FIXED)
        _, dyn_report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC)
        fixed_block.append(fixed_report.blocking_probability)
        dyn_block.append(dyn_report.blocking_probability)
        fixed_eta.append(fixed_report.spectral_efficiency)
        dyn_eta.append(dyn_report.spectral_efficiency)
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"comparison took {elapsed:.1f}s"

    block_gain = np.array(fixed_block) - np.array(dyn_block)
    eta_gain = np.array(dyn_eta) - np.array(fixed_eta)
    block_se = block_gain.std(ddof=1) / math.sqrt(len(block_gain))
    eta_se = eta_gain.std(ddof=1) / math.sqrt(len(eta_gain))
    assert np.mean(dyn_block) < np.mean(fixed_block)
    assert np.mean(dyn_eta) > np.mean(fixed_eta)
    assert block_gain.mean() > 3.0 * block_se
    assert eta_gain.mean() > 3.0 * eta_se
    report_pass(
        "C4 (dynamic beats fixed, 12 vs 1 Erlangs)",
        f"blocking {np.mean(fixed_block):.4f} -> {np.mean(dyn_block):.4f} "
        f"({block_gain.mean() / block_se:.0f} SE); eta {np.mean(fixed_eta):.4f} -> "
        f"{np.mean(dyn_eta):.4f} ({eta_gain.mean() / eta_se:.0f} SE); {elapsed:.1f}s",
    )


# -- criterion 5: utilization grows with call arrival ------------------------------------


def test_c5_spectral_efficiency_trend_over_arrival_sweep():
    topology = make_topology(num_providers=1, channels=10)
    arrival_rates = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
    for seed in range(20):
        etas = []
        for rate in arrival_rates:
            spec = TrafficSpec(
                arrival_rates=(rate,), mean_holding_time=10.0, horizon=2000.0, seed=seed
            )
            _, report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC)
            etas.append(report.spectral_efficiency)
        assert all(0.0 <= eta <= 1.0 for eta in etas)
        assert all(lo <= hi for lo, hi in zip(etas, etas[1:])), (seed, etas)
    report_pass(
        "C5 (utilization non-decreasing in mean call arrival)",
        f"6-point sweep non-decreasing for all 20 seeds, eta within [0, 1]",
    )


# -- criterion 6: property suites ----------------------------------------------------------


def select_live(providers, frees, config):
    """Selection over live pools with only each one's first ``free`` channels free."""
    pools = [LivePool(provider, config) for provider in providers]
    for pool, free in zip(pools, frees):
        for channel in pool.provider.channels[free:]:
            pool.take(channel.id)
    return select_best_channel(pools)


def test_c6a_sbac_argmax_invariance_500_cases():
    rng = np.random.default_rng(99)
    flips = 0
    for _ in range(500):
        providers, frees = [], []
        for provider_id in range(int(rng.integers(1, 6))):
            free = int(rng.integers(0, 9))
            total = int(rng.integers(max(free, 1), 13))
            base = rng.uniform(100.0, 900.0)
            step = rng.uniform(0.1, 25.0)
            providers.append(make_provider(provider_id, total, base, step,
                                           float(rng.uniform(0.0, 5.0))))
            frees.append(free)
        minutes = float(rng.uniform(0.1, 30.0))
        if not any(frees):
            continue
        weights = rng.uniform(0.01, 10.0, size=3).tolist()
        factor = float(rng.uniform(1e-3, 1e3))
        scaled = [beta * factor for beta in weights]
        base_choice = select_live(providers, frees, SbacConfig(*weights, minutes))
        if base_choice[:2] != select_live(providers, frees, SbacConfig(*scaled, minutes))[:2]:
            flips += 1
    assert flips == 0
    report_pass("C6a (SBAC argmax invariance)", "500 randomized weight scalings, 0 flips")


def test_c6b_conservation_on_every_run():
    topology = make_topology(num_providers=2, channels=3)
    runs = 0
    for strategy in (Strategy.FIXED, Strategy.DYNAMIC_SBAC):
        for seed in range(6):
            spec = TrafficSpec(
                arrival_rates=(1.0, 0.5), mean_holding_time=2.0, horizon=300.0, seed=seed
            )
            records, report = run_simulation(
                topology, spec, strategy, audit=True, keep_records=True
            )
            assert len(records) == report.arrivals
            assert report.arrivals == (
                report.admitted
                + report.blocked_no_channel
                + report.blocked_qos
                + report.blocked_interference
            )
            runs += 1
    report_pass("C6b (conservation |arrivals| = |admitted| + |blocked|)", f"{runs} runs exact")


def test_c6c_byte_identical_repeats(tmp_path):
    import yaml

    from dsasim.config import parse_config
    from dsasim.runner import run_scenario

    from test_config import BASE_DOCUMENT

    document = dict(BASE_DOCUMENT)
    document["sweep"] = {"parameter": "arrival_rate", "values": [0.2, 0.8], "seeds_per_point": 2}
    config = parse_config(yaml.safe_dump(document))
    assert run_scenario(config, tmp_path / "first") == 0
    assert run_scenario(config, tmp_path / "second") == 0
    first = (tmp_path / "first" / "results.csv").read_bytes()
    second = (tmp_path / "second" / "results.csv").read_bytes()
    assert first == second
    report_pass("C6c (byte-identical outputs for repeated seeds)", f"{len(first)} bytes equal")


def test_c6d_ber_sinr_round_trip():
    worst = 0.0
    for target in np.logspace(np.log10(1e-6), np.log10(0.4), 100):
        for modulation in (Modulation.BPSK, Modulation.QPSK):
            gamma = sinr_target_from_ber(modulation, float(target))
            worst = max(worst, abs(ber_from_sinr(modulation, gamma) - float(target)))
    assert worst <= 1e-8
    report_pass("C6d (BER<->SINR round trip)", f"worst abs err {worst:.2e} over [1e-6, 0.4]")


def test_c6e_bounds_on_every_run():
    topology = make_topology(num_providers=2, channels=4)
    capacity = topology.total_channels * 1e5
    runs = 0
    for seed in range(8):
        spec = TrafficSpec(
            arrival_rates=(2.0, 2.0), mean_holding_time=4.0, horizon=200.0, seed=seed,
            requested_rate=1e5,
        )
        _, report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC)
        assert 0.0 <= report.spectral_efficiency <= 1.0
        assert report.throughput <= capacity + 1e-9
        runs += 1
    report_pass("C6e (eta in [0,1], throughput <= sum K*R)", f"{runs} saturated runs")


def test_c6f_littles_law_at_1e5_arrivals():
    topology = make_topology(num_providers=1, channels=10)
    spec = TrafficSpec(
        arrival_rates=(1.0,), mean_holding_time=3.0, horizon=1.01e5, seed=17
    )
    _, report = run_simulation(topology, spec, Strategy.FIXED)
    assert report.arrivals >= 100_000
    time_avg_active = report.spectral_efficiency * topology.total_channels
    littles_rhs = report.admitted / spec.horizon * spec.mean_holding_time
    sigma = spec.mean_holding_time * math.sqrt(report.admitted) / spec.horizon
    assert abs(time_avg_active - littles_rhs) < 3.0 * sigma
    report_pass(
        "C6f (Little's law at 1e5 arrivals)",
        f"|L - lambda*W| = {abs(time_avg_active - littles_rhs):.5f} < 3 sigma = {3 * sigma:.5f}",
    )


# -- criterion 7: figure curves are covered by exact metric definitions only ----------------


def test_c7_metric_definitions_stand_in_for_figure_curves():
    # the delay/throughput/RTT/interference curves have no published data;
    # instead each metric of a run's report is recomputed from the run's own
    # records by its definition, on links of three lengths
    speed = 2e8
    links = tuple(
        make_link(i, tx=(300.0 * i, 0.0), rx=(300.0 * i + 100.0 * (i + 1), 0.0))
        for i in range(3)
    )
    topology = NetworkTopology(
        providers=tuple(make_provider(p, channels=3, base_mhz=400.0 + 50.0 * p) for p in (0, 1)),
        links=links,
        primary_points=(),
        gains=gains_from_positions(links, (), path_loss_exponent=3.0, reference_distance=1.0),
        propagation_speed=speed,
    )
    spec = TrafficSpec(
        arrival_rates=(1.0, 0.5), mean_holding_time=4.0, horizon=200.0, seed=3,
        requested_rate=REQUESTED_RATE,
    )
    records, report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, keep_records=True)
    admitted = [r for r in records if r.admitted]
    assert 0 < len(admitted) < len(records)  # both outcomes occur
    assert {r.link_id for r in admitted} == {0, 1, 2}

    # delay = d / c per admitted session; RTT = 2 x delay
    delays = [links[r.link_id].distance / speed for r in admitted]
    mean_delay = sum(delays) / len(delays)
    assert report.mean_propagation_delay == pytest.approx(mean_delay, rel=1e-12)
    assert report.mean_rtt == pytest.approx(2.0 * mean_delay, rel=1e-12)
    # throughput: the requested rate over each session's active time within
    # the horizon; spectral efficiency: that busy time over horizon x channels
    active = sum(min(r.end_time, spec.horizon) - r.arrival_time for r in admitted)
    assert report.throughput == pytest.approx(REQUESTED_RATE * active / spec.horizon, rel=1e-12)
    assert report.spectral_efficiency == pytest.approx(
        active / (spec.horizon * topology.total_channels), rel=1e-12
    )
    assert report.blocking_probability == (len(records) - len(admitted)) / len(records)
    report_pass(
        "C7 (figure shapes not reproduced)",
        f"delay {report.mean_propagation_delay:.3e} s, RTT {report.mean_rtt:.3e} s, "
        f"throughput {report.throughput:.4g} bit/s, spectral efficiency "
        f"{report.spectral_efficiency:.4f} equal their definitions over {len(records)} records",
    )
