"""Minimal-power control for coupled secondary links.

Walks through the physical-layer core on one co-channel group given as
per-link arrays: build the arrays from the links and the requested rate,
evaluate per-link SINR at given powers, then solve the linear system
(I - F) P = u once for the component-wise minimal powers that meet every
link's QoS target, and watch the feasibility boundary appear as the targets
rise and the coupling spectral radius crosses one.

Run: python demos/01_sinr_power_control.py
"""
import numpy as np

from dsasim import SecondaryLink, link_arrays, link_sinr, qos_met, solve_min_powers
from dsasim.qos import QOS_MARGIN

REQUESTED_RATE = 1e5  # bits/s every session asks for
G_SS = np.array([[1.0, 0.35], [0.35, 1.0]])  # the pair's gains
NO_PRIMARY_POINTS = (np.zeros((0, 2)), np.zeros(0))  # g_ps and tolerances


def build_pair(sinr_target: float) -> tuple[SecondaryLink, ...]:
    """Two mutually interfering 1 MHz links: processing gain 10 at 100 kbit/s."""
    return tuple(
        SecondaryLink(
            id=i,
            tx_position=(0.0, 50.0 * i),
            rx_position=(40.0, 50.0 * i),
            bandwidth=1e6,
            rate=REQUESTED_RATE,
            rate_min=5e4,
            rate_max=2e5,
            power=0.1,
            power_max=2.0,
            noise=1e-2,
            sinr_target=sinr_target,
        )
        for i in range(2)
    )


def main() -> None:
    noise, gain, sinr_target, power_max = link_arrays(build_pair(8.0), REQUESTED_RATE)

    print("SINR at equal powers (0.05 W each):")
    sinr = link_sinr(G_SS, noise, gain, np.array([0.05, 0.05]))
    for i, mu in enumerate(sinr):
        print(f"  link {i}: SINR = {mu:8.3f}   (processing gain {gain[i]:.0f})")

    print("\nMinimal powers meeting a target of 8.0:")
    solution = solve_min_powers(G_SS, noise, gain, sinr_target, power_max, *NO_PRIMARY_POINTS)
    print(f"  feasible  : {solution.feasible}")
    print(f"  powers    : {np.round(solution.powers, 6)} W")
    achieved = link_sinr(G_SS, noise, gain, solution.powers)
    print(f"  achieved  : SINR = {np.round(achieved, 6)}")
    print(f"  QoS met   : {qos_met(achieved, sinr_target)}")
    print(f"  rel. slack: {achieved / 8.0 - 1.0} (solved at targets x (1 + {QOS_MARGIN:g}))")

    print("\nRaising the shared target until power control becomes infeasible:")
    print(f"  {'target':>8} {'radius':>8} {'feasible':>9} {'P0 (W)':>12} {'P1 (W)':>12}")
    for target in (2.0, 8.0, 20.0, 26.0, 29.0, 32.0):
        arrays = link_arrays(build_pair(target), REQUESTED_RATE)
        # coupling spectral radius for this symmetric pair: target * R/W * g01/g00
        radius = target * (REQUESTED_RATE / 1e6) * 0.35
        solution = solve_min_powers(G_SS, *arrays, *NO_PRIMARY_POINTS)
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
