"""Second implementations of decisions the package makes once, kept as the
tests' references: pools scored from tuples of free channels, a dense numpy
minimal-power solve, the admission solve as a loop over rows, an exact
rational linear solve, an interference integral over a load trace and the
BER curves whose inverse gives a SINR target.  The simulator never runs
them."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dsasim import Modulation, SbacConfig, SpectrumChannel, utility
from dsasim.errors import DsasimError
from dsasim.qos import coupling_scale

_TILE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CandidatePool:
    """One provider's free channels as seen at selection time."""

    provider_id: int
    available_channels: tuple[SpectrumChannel, ...]
    total_channels: int
    cost_rate: float  # currency per minute

    def __post_init__(self):
        if self.total_channels <= 0:
            raise ValueError("pool has no channels")

    # the four summaries scoring reads; the frequencies and id are None when
    # no channel is free

    @property
    def free_count(self) -> int:
        return len(self.available_channels)

    @property
    def min_free_frequency(self) -> float | None:
        return min((ch.center_frequency for ch in self.available_channels), default=None)

    @property
    def max_free_frequency(self) -> float | None:
        return max((ch.center_frequency for ch in self.available_channels), default=None)

    @property
    def lowest_free_id(self) -> int | None:
        return min((ch.id for ch in self.available_channels), default=None)


def select_by_utility(pools, config: SbacConfig) -> tuple[int, int, float] | None:
    """``select_best_channel`` with each pool scored by ``utility`` when it is
    offered, not read from a cache."""
    best = best_score = None
    for pool in pools:
        if not pool.free_count:
            continue
        score = utility(pool, config)
        if best is None or score > best_score or (
            score == best_score and pool.provider_id < best.provider_id
        ):
            best, best_score = pool, score
    if best is None:
        return None
    return best.provider_id, best.lowest_free_id, best_score


@dataclass(frozen=True)
class PowerSolution:
    """Outcome of the minimal-power solve: are the minimal powers within every
    per-link cap, and do the primary-point budgets hold at them?  Apart, the
    two tell a QoS failure from an interference failure.  When no finite
    powers meet every target, the powers are infinite and so over every cap.
    """

    powers: np.ndarray
    within_power_caps: bool = True
    interference_ok: bool = True

    @property
    def feasible(self) -> bool:
        return self.within_power_caps and self.interference_ok


def solve_min_powers(g_ss, noise, processing_gain, sinr_target, power_max, g_ps,
                     primary_tolerance) -> PowerSolution:
    """Minimal powers for one co-channel group.

    ``g_ss`` is the group's (n, n) gain block, ``g_ps`` its (m, n) gains
    toward the primary points and ``primary_tolerance`` the (m,) budgets the
    group may use; a budget holds when the group's load is at most it.
    Solves ``(I - F) P = u`` with the targets raised by ``QOS_MARGIN``.
    """
    scale = coupling_scale(g_ss, processing_gain, sinr_target)
    system = -scale[:, None] * g_ss
    np.fill_diagonal(system, 1.0)
    try:
        powers = np.linalg.solve(system, scale * noise)
    except np.linalg.LinAlgError:  # singular: F has eigenvalue 1
        powers = np.full(len(noise), np.nan)
    if not np.all((powers > 0.0) & (powers < np.inf)):
        # rho(F) >= 1: no finite powers meet every target, whatever the caps
        return PowerSolution(powers=np.full(len(noise), np.inf), within_power_caps=False)
    return PowerSolution(
        powers=powers,
        within_power_caps=bool(np.all(powers <= power_max)),
        interference_ok=bool(np.all(g_ps @ powers <= primary_tolerance)),
    )


def exact_solve(matrix, rhs) -> list[float]:
    """``x`` with ``matrix @ x = rhs`` for a nonsingular float ``matrix``, by
    Gauss-Jordan elimination in exact rationals on the given floats, each
    entry rounded once at the end: the reference that a float solve of the
    same system is measured against, free of the solve's own rounding."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(np.asarray(matrix).tolist(), np.asarray(rhs).tolist())]
    n = len(rows)
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for r in range(n):
            if r != k and rows[r][k] != 0:
                factor = rows[r][k] / rows[k][k]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    return [float(rows[k][n] / rows[k][k]) for k in range(n)]


def loop_group_powers(ids, scale, u, g_ss) -> list[float] | None:
    """``qos.group_powers`` as a loop over rows of ``[I - F | u]``: the
    reference that each generated kernel must equal bit for bit, None at the
    first pivot that is not positive."""
    stride = len(scale)
    rows = []  # the augmented rows [I - F | u] of the group
    for a, i in enumerate(ids):
        factor, base = -scale[i], i * stride
        row = [factor * g_ss[base + j] for j in ids]
        row[a] = 1.0
        row.append(u[i])
        rows.append(row)
    tails = []  # each step's pivot row past the pivot, divided by the pivot
    while rows:
        pivot, *top = rows.pop(0)
        if not pivot > 0.0:
            return None
        tail = [y / pivot for y in top]
        tails.append(tail)
        rows = [[x - row[0] * y for x, y in zip(row[1:], tail)] for row in rows]
    powers: list[float] = []
    for tail in reversed(tails):
        total = tail[-1]
        for x, p in zip(tail, powers):
            total -= x * p
        powers.insert(0, total)
    return powers


class TraceError(DsasimError):
    """Raised when a piecewise-constant trace has gaps or overlaps."""


def mean_primary_interference(trace, horizon: float) -> float:
    """Time-weighted mean interference, averaged across primary points.

    ``trace`` is a sequence of ``(t_start, t_end, loads)`` whose intervals
    must tile ``[0, horizon]``; ``loads`` is the per-point aggregate
    interference in watts during that interval.  With zero primary points
    the mean is defined as 0.0.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    expected_start = 0.0
    total = None
    for t_start, t_end, loads in trace:
        if abs(t_start - expected_start) > _TILE_TOLERANCE:
            raise TraceError(
                f"interval starting at {t_start} leaves a gap or overlap "
                f"(expected {expected_start})"
            )
        if t_end < t_start:
            raise TraceError(f"interval ({t_start}, {t_end}) runs backwards")
        loads = np.asarray(loads, dtype=float)
        if total is None:
            total = np.zeros_like(loads)
        total += loads * (t_end - t_start)
        expected_start = t_end
    if abs(expected_start - horizon) > _TILE_TOLERANCE:
        raise TraceError(f"trace ends at {expected_start}, expected {horizon}")
    if total is None or total.size == 0:
        return 0.0
    return float(np.mean(total) / horizon)


def ber_from_sinr(modulation: Modulation, sinr: float) -> float:
    """Closed-form bit error rate at the given SINR: BPSK Q(sqrt(2 * sinr)),
    QPSK Q(sqrt(sinr)); both strictly decrease in the SINR from BER(0) = 0.5.
    The curves that ``sinr_target_from_ber`` inverts.
    """
    if not sinr >= 0:  # written so that NaN fails
        raise ValueError(f"sinr must be >= 0, got {sinr}")
    arg = math.sqrt(2.0 * sinr if modulation is Modulation.BPSK else sinr)
    return 0.5 * math.erfc(arg / math.sqrt(2.0))
