"""Second implementations of decisions the package makes once, kept as the
tests' references: the utility scored from a pool's four summaries, pools
built from tuples of free channels, a dense numpy minimal-power solve, the
admission solve as a loop over rows and the physical admission around it,
an exact rational linear solve, a counter-only loss system, an interference
integral over a load trace and the BER curves whose inverse gives a SINR
target.  The simulator never runs them."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from dsasim import Modulation, Outcome, SbacConfig, SpectrumChannel, Strategy
from dsasim.errors import DsasimError
from dsasim.qos import coupling_scale
from dsasim.sbac import COST_FLOOR, SPREAD_FLOOR, SPREAD_UNIT_HZ
from dsasim.traffic import build_event_stream

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


def utility(pool, config: SbacConfig) -> float:
    """Score one candidate pool, a ``LivePool`` or a ``CandidatePool``, from
    its summaries and the config, as the ``sbac`` module docstring writes
    the utility: the reference a live pool's cached ``score`` must equal bit
    for bit.  Raises ValueError on a pool with no free channel, which is no
    candidate."""
    if not pool.free_count:
        raise ValueError(f"pool {pool.provider_id} has no free channel")
    spread = (pool.max_free_frequency - pool.min_free_frequency) / SPREAD_UNIT_HZ
    cost = config.session_minutes * 60.0 * pool.cost_rate
    return (
        10.0 * config.beta1 * (pool.free_count / pool.total_channels)
        + config.beta2 * math.log(1.0 / max(spread, SPREAD_FLOOR))
        + config.beta3 / max(cost, COST_FLOOR)
    )


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


def loop_group_powers(ids, scale, u, g_ss_rows) -> list[float] | None:
    """``engine.group_powers`` as a loop over rows of ``[I - F | u]``, None
    at the first pivot that is not positive: the reference that the
    generated solve must equal bit for bit wherever these powers are all
    positive and finite (elsewhere it gives None).  It reads the gains as
    rows, ``g_ss_rows[i][j]``, as the generated solve does, and divides
    every step's row by its pivot, step 0's by 1.0 too."""
    rows = []  # the augmented rows [I - F | u] of the group
    for a, i in enumerate(ids):
        factor, gains = -scale[i], g_ss_rows[i]
        row = [factor * gains[j] for j in ids]
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


def loop_admission(group, record, scale, u, g_ss_rows, cap, g_ps_rows, tolerances, loads):
    """The engine's physical admission of ``record`` to the held ``group``
    as loops over lists, on :func:`loop_group_powers`: the reference that
    each generated ``engine._admission`` must equal bit for bit in outcome,
    powers and ``loads``.  A pivot that is not positive, or a power that is
    not positive and finite or over its cap, is a QoS block; then a primary
    point whose budget the grown group's load breaks is an interference
    block.  On admission the members and ``record`` get the solved powers
    and each point's load the change in the group's load."""
    ids = [member.link_id for member in group]
    ids.append(record.link_id)
    powers = loop_group_powers(ids, scale, u, g_ss_rows)
    if powers is None:
        return Outcome.BLOCKED_QOS
    for i, p in zip(ids, powers):
        if not (0.0 < p < math.inf and p <= cap[i]):
            return Outcome.BLOCKED_QOS

    held = [member.power for member in group]
    changes = []
    for gains_row, tolerance, load in zip(g_ps_rows, tolerances, loads):
        gains = [gains_row[i] for i in ids]
        before = math.fsum(map(mul, gains, held))  # the n - 1 members' loads
        after = math.fsum(map(mul, gains, powers))
        if not after <= tolerance - (load - before):
            return Outcome.BLOCKED_INTERFERENCE
        changes.append(after - before)

    for member, p in zip(group, powers):
        member.power = p
    record.power = powers[-1]
    for j, change in enumerate(changes):
        loads[j] += change
    return Outcome.ADMITTED


def loss_counts(topology, spec, strategy: Strategy) -> tuple[int, int, list[int]]:
    """``(arrivals, blocked, blocked per home provider)`` of the pure loss
    system on ``build_event_stream(spec)``, counters only.  Without the
    physical stage an arrival is blocked exactly when its candidate channels
    are all held: its home provider's under FIXED, every provider's under
    DYNAMIC_SBAC.  Sessions due to leave by an arrival's time leave first,
    the engine's tie rule."""
    channels = [len(provider.channels) for provider in topology.providers]
    held = [0] * len(channels)  # sessions counted against each home's channels
    ends: list[tuple[float, int]] = []  # (end time, the provider whose count it holds)
    arrivals, blocked = 0, [0] * len(channels)
    for time, home, holding_time in build_event_stream(spec):
        while ends and ends[0][0] <= time:
            held[heapq.heappop(ends)[1]] -= 1
        arrivals += 1
        if strategy is Strategy.FIXED:
            free, slot = held[home] < channels[home], home
        else:  # one shared count: which provider serves the call does not matter
            free, slot = sum(held) < sum(channels), 0
        if free:
            held[slot] += 1
            heapq.heappush(ends, (time + holding_time, slot))
        else:
            blocked[home] += 1
    return arrivals, sum(blocked), blocked


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
