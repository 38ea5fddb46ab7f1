"""Minimal-power control for coupled secondary links.

Walks through the physical-layer core on one co-channel group given as
per-link arrays: build the arrays from the links and the requested rate,
evaluate per-link SINR at given powers, then solve (I - F) P = u once, by
the engine's admission of one link to the other, for the component-wise
minimal powers that meet every link's QoS target, and watch the feasibility
boundary appear as the targets rise and the coupling spectral radius
crosses one.

Run: python demos/01_sinr_power_control.py
"""
import numpy as np

from dsasim import SecondaryLink, link_arrays, link_sinr, qos_met
from dsasim.engine import group_powers
from dsasim.qos import QOS_MARGIN, coupling_scale

REQUESTED_RATE = 1e5  # bits/s every session asks for
G_SS = np.array([[1.0, 0.35], [0.35, 1.0]])  # the pair's gains


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


def min_powers(noise, gain, sinr_target, power_max) -> np.ndarray | None:
    """The pair's minimal powers, or None when none within the caps exist."""
    scale = coupling_scale(G_SS, gain, sinr_target)
    powers = group_powers([0, 1], scale.tolist(), (scale * noise).tolist(), G_SS.tolist())
    if powers is None or any(p > cap for p, cap in zip(powers, power_max)):
        return None
    return np.array(powers)


def main() -> None:
    noise, gain, sinr_target, power_max = link_arrays(build_pair(8.0), REQUESTED_RATE)

    print("SINR at equal powers (0.05 W each):")
    sinr = link_sinr(G_SS, noise, gain, np.array([0.05, 0.05]))
    for i, mu in enumerate(sinr):
        print(f"  link {i}: SINR = {mu:8.3f}   (processing gain {gain[i]:.0f})")

    print("\nMinimal powers meeting a target of 8.0:")
    powers = min_powers(noise, gain, sinr_target, power_max)
    print(f"  feasible  : {powers is not None}")
    print(f"  powers    : {np.round(powers, 6)} W")
    achieved = link_sinr(G_SS, noise, gain, powers)
    print(f"  achieved  : SINR = {np.round(achieved, 6)}")
    print(f"  QoS met   : {qos_met(achieved, sinr_target)}")
    print(f"  rel. slack: {achieved / 8.0 - 1.0} (solved at targets x (1 + {QOS_MARGIN:g}))")

    print("\nRaising the shared target until power control becomes infeasible:")
    print(f"  {'target':>8} {'radius':>8} {'feasible':>9} {'P0 (W)':>12} {'P1 (W)':>12}")
    for target in (2.0, 8.0, 20.0, 26.0, 29.0, 32.0):
        powers = min_powers(*link_arrays(build_pair(target), REQUESTED_RATE))
        # coupling spectral radius for this symmetric pair: target * R/W * g01/g00
        radius = target * (REQUESTED_RATE / 1e6) * 0.35
        line = f"  {target:8.1f} {radius:8.3f} {str(powers is not None):>9}"
        if powers is not None:
            line += f" {powers[0]:12.6f} {powers[1]:12.6f}"
        else:
            line += f"  {'-':>11} {'-':>12}"
        print(line)
    print("\nThe verdict flips exactly where the spectral radius crosses 1:")
    print("below it the solve returns the unique minimal power vector; above it")
    print("an elimination pivot is not positive, so no powers meet the targets.")


if __name__ == "__main__":
    main()
