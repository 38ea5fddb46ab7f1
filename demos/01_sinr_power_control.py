"""Minimal-power control for coupled secondary links.

Walks through the physical-layer core: evaluate per-link SINR at given
powers, then solve the linear system (I - F) P = u once for the
component-wise minimal powers that meet every link's QoS target, and watch
the feasibility boundary appear as the targets rise and the coupling
spectral radius crosses one.

Run: python demos/01_sinr_power_control.py
"""
import numpy as np

from dsasim import (
    GainMatrices,
    NetworkTopology,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    compute_sinr,
    min_power_allocation,
)
from dsasim.qos import QOS_MARGIN


def build_pair(sinr_target: float) -> NetworkTopology:
    """Two mutually interfering links with processing gain 10."""
    links = tuple(
        SecondaryLink(
            id=i,
            tx_position=(0.0, 50.0 * i),
            rx_position=(40.0, 50.0 * i),
            bandwidth=1e6,
            rate=1e5,
            rate_min=5e4,
            rate_max=2e5,
            power=0.1,
            power_max=2.0,
            noise=1e-2,
            sinr_target=sinr_target,
        )
        for i in range(2)
    )
    provider = ServiceProvider(
        id=0,
        channels=(SpectrumChannel(id=0, center_frequency=4e8, bandwidth=1e6),),
        cost_rate=0.05,
    )
    gains = GainMatrices(g_ss=[[1.0, 0.35], [0.35, 1.0]], g_ps=np.zeros((0, 2)))
    return NetworkTopology(providers=(provider,), links=links, primary_points=(), gains=gains)


def main() -> None:
    topology = build_pair(sinr_target=8.0)

    print("SINR at equal powers (0.05 W each):")
    report = compute_sinr(topology, np.array([0.05, 0.05]))
    for i, mu in enumerate(report.sinr):
        print(f"  link {i}: SINR = {mu:8.3f}   (processing gain {report.processing_gain[i]:.0f})")

    print("\nMinimal powers meeting a target of 8.0:")
    solution = min_power_allocation(topology)
    print(f"  feasible  : {solution.feasible}")
    print(f"  powers    : {np.round(solution.powers, 6)} W")
    check = compute_sinr(topology, solution.powers)
    print(f"  achieved  : SINR = {np.round(check.sinr, 6)}")
    print(f"  rel. slack: {check.sinr / 8.0 - 1.0} (solved at targets x (1 + {QOS_MARGIN:g}))")

    print("\nRaising the shared target until power control becomes infeasible:")
    print(f"  {'target':>8} {'radius':>8} {'feasible':>9} {'P0 (W)':>12} {'P1 (W)':>12}")
    for target in (2.0, 8.0, 20.0, 26.0, 29.0, 32.0):
        topology = build_pair(target)
        # coupling spectral radius for this symmetric pair: target * R/W * g01/g00
        radius = target * (1e5 / 1e6) * 0.35
        solution = min_power_allocation(topology)
        line = f"  {target:8.1f} {radius:8.3f} {str(solution.feasible):>9}"
        if solution.feasible:
            line += f" {solution.powers[0]:12.6f} {solution.powers[1]:12.6f}"
        else:
            line += f"  {'-':>11} {'-':>12}"
        print(line)
    print("\nThe verdict flips exactly where the spectral radius crosses 1:")
    print("below it the solve returns the unique minimal power vector; above it")
    print("the solution has a non-positive component, so no powers meet the targets.")


if __name__ == "__main__":
    main()
