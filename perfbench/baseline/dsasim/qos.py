"""SINR evaluation, QoS/interference checks and minimal-power feasibility.

The per-link quality measure is the effective bit-energy-to-noise ratio

    mu_i = (W_i / R_i) * g_ss[i][i] * P_i / (sum_{j != i} g_ss[i][j] * P_j + N_i)

where ``W_i / R_i`` is the processing gain (replaced by 1 for access schemes
without spreading).  A link's QoS holds when ``mu_i >= gamma_i``; each primary
receiving point ``j`` additionally requires ``sum_i g_ps[j][i] * P_i <= T_j``.

The minimal-power solver rewrites ``mu_i = gamma_i`` as the linear fixed
point ``P = F P + u`` and iterates from ``P = 0``.  Iterates are
component-wise non-decreasing and converge to the minimal QoS-satisfying
power vector exactly when the spectral radius of ``F`` is below one, which
makes both feasibility and minimality independently checkable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import SolverIndeterminateError, UnsupportedModulationError
from .topology import Modulation, NetworkTopology

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_PATIENCE = 50


@dataclass(frozen=True)
class SinrReport:
    """Per-link SINR values and the processing gains used to compute them."""

    sinr: np.ndarray
    processing_gain: np.ndarray


@dataclass(frozen=True)
class PowerSolution:
    """Outcome of the minimal-power fixed-point iteration.

    ``feasible`` requires all three of: the iteration converged, the
    resulting powers respect every per-link cap, and the primary-point
    interference constraints hold at those powers.  The component flags are
    kept so callers can tell a QoS failure from an interference failure.
    """

    feasible: bool
    powers: np.ndarray
    iterations: int
    residual: float
    converged: bool = True
    within_power_caps: bool = True
    interference_ok: bool = True


def compute_sinr(
    topology: NetworkTopology,
    powers: np.ndarray,
    use_processing_gain: bool = True,
) -> SinrReport:
    """Per-link SINR (the ``mu_i`` above) at the given transmit powers."""
    powers = np.asarray(powers, dtype=float)
    n = topology.num_links
    if powers.shape != (n,):
        raise ValueError(f"powers shape {powers.shape} does not match {n} links")

    g_ss = topology.gains.g_ss
    noise = np.array([link.noise for link in topology.links])
    if use_processing_gain:
        pg = np.array([link.processing_gain for link in topology.links])
    else:
        pg = np.ones(n)

    # off-diagonal interference: sum_j!=i g_ss[i][j] * P_j
    interference = g_ss @ powers - np.diag(g_ss) * powers
    denominator = interference + noise
    if np.any(denominator == 0.0):
        bad = int(np.argmin(denominator))
        raise ZeroDivisionError(f"zero noise-plus-interference at link {bad}")
    sinr = pg * np.diag(g_ss) * powers / denominator
    return SinrReport(sinr=sinr, processing_gain=pg)


def check_qos(report: SinrReport, topology: NetworkTopology) -> np.ndarray:
    """Per-link boolean: mu_i >= gamma_i, exact comparison (boundary passes)."""
    targets = np.array([link.sinr_target for link in topology.links])
    return report.sinr >= targets


def check_interference(
    topology: NetworkTopology,
    powers: np.ndarray,
    tolerance_override: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate secondary interference at each primary receiving point.

    Returns ``(loads, satisfied)`` where ``loads[j] = sum_i g_ps[j][i]*P_i``
    and ``satisfied[j]`` is ``loads[j] <= T_j``.  ``tolerance_override``
    substitutes the per-point tolerances (used for residual-headroom checks).
    """
    powers = np.asarray(powers, dtype=float)
    loads = topology.gains.g_ps @ powers
    if tolerance_override is not None:
        tolerances = np.asarray(tolerance_override, dtype=float)
    else:
        tolerances = np.array([p.tolerance for p in topology.primary_points])
    return loads, loads <= tolerances


def _fixed_point_system(
    topology: NetworkTopology, use_processing_gain: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Build F and u of the fixed point P = F P + u equivalent to mu = gamma."""
    g_ss = topology.gains.g_ss
    n = topology.num_links
    targets = np.array([link.sinr_target for link in topology.links])
    noise = np.array([link.noise for link in topology.links])
    if use_processing_gain:
        pg = np.array([link.processing_gain for link in topology.links])
    else:
        pg = np.ones(n)

    scale = targets / (pg * np.diag(g_ss))
    coupling = g_ss * scale[:, None]
    np.fill_diagonal(coupling, 0.0)
    offset = scale * noise
    return coupling, offset


def min_power_allocation(
    topology: NetworkTopology,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    patience: int = DEFAULT_PATIENCE,
    use_processing_gain: bool = True,
    primary_tolerance_override: np.ndarray | None = None,
) -> PowerSolution:
    """Find the component-wise minimal powers meeting every link's QoS target.

    Iterates ``P <- F P + u`` from ``P = 0`` until successive iterates differ
    by less than ``tolerance`` in max norm.  Because iterates increase
    monotonically, any component staying above its power cap for ``patience``
    consecutive iterations proves the minimal solution (if one exists at all)
    violates that cap, so the instance is declared infeasible.

    Raises
    ------
    SolverIndeterminateError
        If ``max_iterations`` pass without convergence or a cap-excess
        verdict; the error carries the last iterate.
    """
    coupling, offset = _fixed_point_system(topology, use_processing_gain)
    caps = np.array([link.power_max for link in topology.links])

    powers = np.zeros(topology.num_links)
    over_cap_streak = 0
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        updated = coupling @ powers + offset
        residual = float(np.max(np.abs(updated - powers))) if updated.size else 0.0
        powers = updated

        if residual < tolerance:
            within_caps = bool(np.all(powers <= caps + tolerance))
            loads, satisfied = check_interference(
                topology, powers, tolerance_override=primary_tolerance_override
            )
            interference_ok = bool(np.all(satisfied))
            return PowerSolution(
                feasible=within_caps and interference_ok,
                powers=powers,
                iterations=iteration,
                residual=residual,
                converged=True,
                within_power_caps=within_caps,
                interference_ok=interference_ok,
            )

        if np.any(powers > caps + tolerance):
            over_cap_streak += 1
            if over_cap_streak >= patience:
                return PowerSolution(
                    feasible=False,
                    powers=powers,
                    iterations=iteration,
                    residual=residual,
                    converged=False,
                    within_power_caps=False,
                    interference_ok=True,
                )
        else:
            over_cap_streak = 0

    raise SolverIndeterminateError(
        f"no feasibility verdict after {max_iterations} iterations "
        f"(residual {residual:.3e})",
        last_iterate=powers,
        iterations=max_iterations,
    )


def ber_from_sinr(modulation: Modulation, sinr: float) -> float:
    """Closed-form bit error rate at the given SINR.

    BPSK uses Q(sqrt(2 * sinr)), QPSK uses Q(sqrt(sinr)); both are strictly
    decreasing in the SINR with BER(0) = 0.5.
    """
    if sinr < 0:
        raise ValueError(f"sinr must be >= 0, got {sinr}")
    if modulation is Modulation.BPSK:
        arg = np.sqrt(2.0 * sinr)
    elif modulation is Modulation.QPSK:
        arg = np.sqrt(sinr)
    else:
        raise UnsupportedModulationError(
            f"no BER/SINR mapping for modulation {modulation}"
        )
    # Q(x) = erfc(x / sqrt(2)) / 2
    return float(0.5 * erfc(arg / np.sqrt(2.0)))


def sinr_target_from_ber(
    modulation: Modulation, target_ber: float, residual: float = 1e-9
) -> float:
    """Invert the BER curve: the SINR at which the BER meets the target.

    Bisection on the monotone curve until ``|BER(sinr) - target| < residual``.
    """
    if modulation is Modulation.NONE:
        raise UnsupportedModulationError(
            "modulation NONE has no BER mapping; set the SINR target directly"
        )
    if not (0.0 < target_ber < 0.5):
        raise ValueError(f"target_ber must be in (0, 0.5), got {target_ber}")

    lo = 0.0
    hi = 1.0
    while ber_from_sinr(modulation, hi) > target_ber:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"target_ber {target_ber} unreachable")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ber = ber_from_sinr(modulation, mid)
        if abs(ber - target_ber) < residual:
            return mid
        if ber > target_ber:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
