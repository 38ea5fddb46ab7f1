"""Shared topology builders for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from dsasim import (
    GainMatrices,
    NetworkTopology,
    PrimaryReceivingPoint,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    gains_from_positions,
    link_arrays,
)
from dsasim.qos import coupling_scale, group_powers

from oracles import PowerSolution

# every session's data rate in these tests, and make_link's default link rate
REQUESTED_RATE = 1e5


def make_provider(provider_id: int = 0, channels: int = 10, base_mhz: float = 400.0,
                  spacing_mhz: float = 1.0, cost_rate: float = 0.05) -> ServiceProvider:
    return ServiceProvider(
        id=provider_id,
        channels=tuple(
            SpectrumChannel(
                id=k,
                center_frequency=(base_mhz + k * spacing_mhz) * 1e6,
                bandwidth=1e6,
            )
            for k in range(channels)
        ),
        cost_rate=cost_rate,
    )


def make_link(link_id: int = 0, tx=(0.0, 0.0), rx=(200.0, 0.0), bandwidth: float = 1e6,
              rate: float = REQUESTED_RATE, power: float = 0.1, power_max: float = 1.0,
              noise: float = 1e-10, sinr_target: float = 5.0) -> SecondaryLink:
    return SecondaryLink(
        id=link_id,
        tx_position=tx,
        rx_position=rx,
        bandwidth=bandwidth,
        rate=rate,
        rate_min=rate / 2,
        rate_max=rate * 2,
        power=power,
        power_max=power_max,
        noise=noise,
        sinr_target=sinr_target,
    )


def make_topology(num_providers: int = 1, channels: int = 10, num_links: int = 2,
                  with_primary: bool = True, tolerance: float = 1e-3,
                  **link_kwargs) -> NetworkTopology:
    providers = tuple(
        make_provider(i, channels=channels, base_mhz=400.0 + 50.0 * i)
        for i in range(num_providers)
    )
    links = tuple(
        make_link(i, tx=(300.0 * i, 0.0), rx=(300.0 * i + 200.0, 150.0), **link_kwargs)
        for i in range(num_links)
    )
    if with_primary:
        points = (PrimaryReceivingPoint(id=0, position=(1000.0, 1000.0), tolerance=tolerance),)
    else:
        points = ()
    gains = gains_from_positions(links, points, path_loss_exponent=3.0, reference_distance=1.0)
    return NetworkTopology(providers=providers, links=links, primary_points=points, gains=gains)


def explicit_gain_topology(g_ss, links, g_ps=None, points=(), providers=None,
                           speed: float = 3.0e8) -> NetworkTopology:
    """Topology with hand-set gain matrices, for exact QoS oracles."""
    g_ss = np.asarray(g_ss, dtype=float)
    if g_ps is None:
        g_ps = np.zeros((len(points), len(links)))
    if providers is None:
        providers = (make_provider(0, channels=4),)
    return NetworkTopology(
        providers=tuple(providers),
        links=tuple(links),
        primary_points=tuple(points),
        gains=GainMatrices(g_ss=g_ss, g_ps=np.asarray(g_ps, dtype=float)),
        propagation_speed=speed,
    )


def solve_as_one_group(topology: NetworkTopology) -> PowerSolution:
    """qos.group_powers with every link of the topology in one co-channel
    group, judged against the caps and budgets as an admission is."""
    noise, gain, sinr_target, power_max = link_arrays(topology.links, REQUESTED_RATE)
    g_ss = topology.gains.g_ss
    scale = coupling_scale(g_ss, gain, sinr_target)
    powers = group_powers(range(len(noise)), scale.tolist(), (scale * noise).tolist(),
                          g_ss.reshape(-1).tolist())
    if powers is None:  # rho(F) >= 1: no finite powers, so over every cap
        return PowerSolution(powers=np.full(len(noise), np.inf), within_power_caps=False)
    powers = np.array(powers)
    budgets = np.array([p.tolerance for p in topology.primary_points])
    return PowerSolution(powers, bool(np.all(powers <= power_max)),
                         bool(np.all(topology.gains.g_ps @ powers <= budgets)))


def fixed_point_system(topology: NetworkTopology) -> tuple[np.ndarray, np.ndarray]:
    """F and u of the fixed point P = F P + u equivalent to mu = gamma (no margin)."""
    noise, gain, sinr_target, _ = link_arrays(topology.links, REQUESTED_RATE)
    g_ss = topology.gains.g_ss
    scale = sinr_target / (gain * np.diag(g_ss))
    coupling = g_ss * scale[:, None]
    np.fill_diagonal(coupling, 0.0)
    return coupling, scale * noise


def jacobi_powers(topology: NetworkTopology, tolerance: float = 1e-9,
                  max_iterations: int = 10_000) -> np.ndarray | None:
    """Oracle: iterate P <- F P + u from zero; None when it does not settle."""
    coupling, offset = fixed_point_system(topology)
    powers = np.zeros(topology.num_links)
    for _ in range(max_iterations):
        with np.errstate(over="ignore", invalid="ignore"):  # diverging iterates
            updated = coupling @ powers + offset
            step = np.max(np.abs(updated - powers))
        if step < tolerance:
            return updated
        if not np.isfinite(step):
            return None
        powers = updated
    return None


@pytest.fixture
def simple_topology() -> NetworkTopology:
    return make_topology()
