"""SINR, the QoS predicate and the minimal-power system of one co-channel
group, given as the per-link arrays of :func:`link_arrays`.

The per-link quality measure is the effective bit-energy-to-noise ratio

    mu_i = (W_i / R) * g_ss[i][i] * P_i / (sum_{j != i} g_ss[i][j] * P_j + N_i)

where ``W_i / R`` is the processing gain: the link bandwidth over the data
rate every session requests (exactly 1 for an access scheme without
spreading, whose link bandwidth equals the requested rate).  A link's QoS
holds when ``mu_i >= gamma_i``; each primary receiving point ``j``
additionally requires ``sum_i g_ps[j][i] * P_i <= T_j``.

With ``F[i][j] = gamma_i * g_ss[i][j] / ((W_i / R) * g_ss[i][i])`` for
``j != i`` (zero on the diagonal) and ``u_i = gamma_i * N_i / ((W_i / R) *
g_ss[i][i])``, the targets hold with equality exactly when ``(I - F) P = u``.
Since ``F >= 0`` and ``u > 0``, that system has a positive solution exactly
when the spectral radius of ``F`` is below one, and that solution is then the
component-wise minimal power vector meeting every target (Foschini and
Miljanic 1993; Zander 1992).  So one linear solve decides feasibility.

A solve that meets the targets with equality lands on either side of them by
rounding, so every target is first raised by the relative margin
``QOS_MARGIN`` (:func:`coupling_scale`).  The solved powers then pass the
exact comparison of :func:`qos_met` and sit just above the minimal ones.
The solve is ``dsasim.engine``'s one generated admission per group size;
``dsasim.engine.group_powers`` makes it for a group alone.

A BER target is another unit of the SINR target, converted once, when the
config is parsed.  A BPSK link's bit error rate at SINR ``gamma`` is
``Q(sqrt(2 * gamma))``, a QPSK link's ``Q(sqrt(gamma))``, with ``Q(x) =
erfc(x / sqrt(2)) / 2``.  So a BER target ``b`` needs ``x = -Phi^-1(b)``,
``Phi`` the standard normal CDF: BPSK ``gamma = x**2 / 2`` and QPSK twice
that, both raised by ``QOS_MARGIN`` so that the BER at the returned SINR is
at most ``b``, not above by rounding.
"""
from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from statistics import NormalDist

import numpy as np

from .topology import SecondaryLink

# Relative margin on the SINR targets, so that solved powers pass qos_met.
# Over 29,822 admissions (8 x 10 channels, 32 links, reuse, 32 seeds) the
# check failed 23,380 times at 0, 8 times at 1e-15 and never at 1e-14..1e-12.
# BER-derived targets carry it too: at 0, 30,526 of 40,000 BERs in
# [1e-300, 0.4] read above their target at the returned SINR; at 1e-14, none.
QOS_MARGIN = 1e-12


class Modulation(Enum):
    """The modulations whose BER curve :func:`sinr_target_from_ber` inverts."""

    BPSK = "BPSK"
    QPSK = "QPSK"


def link_arrays(
    links: Sequence[SecondaryLink], requested_rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-link noise, processing gain, SINR target and power cap arrays.
    The processing gain is each link's bandwidth over ``requested_rate``,
    every session's data rate.
    """
    noise = np.array([link.noise for link in links])
    gain = np.array([link.bandwidth for link in links]) / requested_rate
    sinr_target = np.array([link.sinr_target for link in links])
    power_max = np.array([link.power_max for link in links])
    return noise, gain, sinr_target, power_max


def link_sinr(
    g_ss: np.ndarray, noise: np.ndarray, processing_gain: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """Per-link SINR (the ``mu_i`` above) of one co-channel group."""
    # off-diagonal interference: sum_j!=i g_ss[i][j] * P_j
    interference = g_ss @ powers - np.diag(g_ss) * powers
    denominator = interference + noise
    if np.any(denominator == 0.0):
        bad = int(np.argmin(denominator))
        raise ZeroDivisionError(f"zero noise-plus-interference at link {bad}")
    return processing_gain * np.diag(g_ss) * powers / denominator


def qos_met(sinr: np.ndarray, sinr_target: np.ndarray) -> np.ndarray:
    """Per-link boolean: mu_i >= gamma_i, exact comparison (boundary passes)."""
    return sinr >= sinr_target


def coupling_scale(
    g_ss: np.ndarray, processing_gain: np.ndarray, sinr_target: np.ndarray
) -> np.ndarray:
    """Per-link ``gamma_i * (1 + QOS_MARGIN) / ((W_i / R) * g_ss[i][i])``: the
    factor that turns row ``i`` of ``g_ss`` into row ``i`` of ``F`` (off the
    diagonal) and the noise ``N_i`` into ``u_i``, targets raised by
    :data:`QOS_MARGIN`.
    """
    return sinr_target * (1.0 + QOS_MARGIN) / (processing_gain * np.diag(g_ss))


def sinr_target_from_ber(modulation: Modulation, target_ber: float) -> float:
    """Invert the BER curve: the SINR, raised by :data:`QOS_MARGIN`, at which
    the BER is at most the target.  BPSK needs ``Phi^-1(ber) ** 2 / 2`` and
    QPSK twice that; see the module docstring.
    """
    if not (0.0 < target_ber < 0.5):
        raise ValueError(f"target_ber must be in (0, 0.5), got {target_ber}")
    gamma = NormalDist().inv_cdf(target_ber) ** 2 / 2.0 * (1.0 + QOS_MARGIN)
    return gamma if modulation is Modulation.BPSK else 2.0 * gamma  # QPSK
