"""Best-available-channel selection over candidate provider pools.

Each provider with at least one free channel forms a candidate pool.  A pool
is scored by a weighted utility of three terms: the fraction of its channels
currently free, the log-reciprocal of the frequency spread of the free
channels, and the reciprocal of the expected session cost:

    utility = 10 * beta1 * availability
            + beta2 * ln(1 / spread)
            + beta3 * (1 / cost)

The pool with the highest utility wins (ties break toward the lowest
provider id) and the lowest-indexed free channel inside it is assigned.
Zero spread and zero cost are clamped to small positive floors before the
log/reciprocal so the formula stays total without reordering non-degenerate
candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NoCandidateError
from .topology import SpectrumChannel

SPREAD_FLOOR = 1e-6  # in spread units (MHz by default)
COST_FLOOR = 1e-6  # currency units
DEFAULT_SPREAD_UNIT_HZ = 1e6


@dataclass(frozen=True)
class SbacWeights:
    beta1: float = 0.5
    beta2: float = 0.3
    beta3: float = 0.2

    def __post_init__(self):
        if self.beta1 < 0 or self.beta2 < 0 or self.beta3 < 0:
            raise ValueError("weights must be non-negative")
        if self.beta1 + self.beta2 + self.beta3 <= 0:
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class CandidatePool:
    """One provider's free channels as seen at selection time."""

    provider_id: int
    available_channels: tuple[SpectrumChannel, ...]
    total_channels: int
    session_minutes: float  # expected session duration used for the cost term
    cost_rate: float  # currency per minute


@dataclass(frozen=True)
class UtilityBreakdown:
    availability: float  # fraction of the pool's channels that are free
    spread: float  # max - min free-channel frequency, in spread units
    cost: float  # session_minutes * 60 * cost_rate
    utility: float


@dataclass(frozen=True)
class SbacConfig:
    """Selection weights plus the scenario-level knobs of the utility."""

    weights: SbacWeights = field(default_factory=SbacWeights)
    session_minutes: float = 1.0
    spread_unit_hz: float = DEFAULT_SPREAD_UNIT_HZ
    spread_floor: float = SPREAD_FLOOR
    cost_floor: float = COST_FLOOR


def availability_prob(pool: CandidatePool) -> float:
    """Fraction of the pool's channels that are currently free."""
    if pool.total_channels <= 0:
        raise ValueError("pool has no channels")
    return len(pool.available_channels) / pool.total_channels


def frequency_spread(pool: CandidatePool, unit_hz: float = DEFAULT_SPREAD_UNIT_HZ) -> float:
    """Max minus min center frequency among the free channels, in `unit_hz`."""
    if not pool.available_channels:
        raise NoCandidateError(f"pool {pool.provider_id} has no free channel")
    freqs = [ch.center_frequency for ch in pool.available_channels]
    return (max(freqs) - min(freqs)) / unit_hz


def usage_cost(pool: CandidatePool) -> float:
    """Session cost: duration in minutes times 60 times the per-minute rate."""
    return pool.session_minutes * 60.0 * pool.cost_rate


def channel_utility(
    pool: CandidatePool,
    weights: SbacWeights,
    spread_unit_hz: float = DEFAULT_SPREAD_UNIT_HZ,
    spread_floor: float = SPREAD_FLOOR,
    cost_floor: float = COST_FLOOR,
) -> UtilityBreakdown:
    """Score one candidate pool; raises NoCandidateError on an empty pool."""
    prob = availability_prob(pool)
    spread = frequency_spread(pool, unit_hz=spread_unit_hz)
    cost = usage_cost(pool)
    utility = (
        10.0 * weights.beta1 * prob
        + weights.beta2 * math.log(1.0 / max(spread, spread_floor))
        + weights.beta3 / max(cost, cost_floor)
    )
    return UtilityBreakdown(availability=prob, spread=spread, cost=cost, utility=utility)


def select_best_channel(
    pools: list[CandidatePool] | tuple[CandidatePool, ...],
    weights: SbacWeights,
    spread_unit_hz: float = DEFAULT_SPREAD_UNIT_HZ,
    spread_floor: float = SPREAD_FLOOR,
    cost_floor: float = COST_FLOOR,
) -> tuple[int, int, float]:
    """Pick the highest-utility pool and its lowest-indexed free channel.

    Returns ``(provider_id, channel_id, utility)``.  Pools without free
    channels are skipped; if none remain a NoCandidateError is raised, which
    the simulation maps to a blocked call.
    """
    best: tuple[int, int, float] | None = None
    for pool in sorted(pools, key=lambda p: p.provider_id):
        if not pool.available_channels:
            continue
        breakdown = channel_utility(
            pool,
            weights,
            spread_unit_hz=spread_unit_hz,
            spread_floor=spread_floor,
            cost_floor=cost_floor,
        )
        if best is None or breakdown.utility > best[2]:
            channel = min(pool.available_channels, key=lambda ch: ch.id)
            best = (pool.provider_id, channel.id, breakdown.utility)
    if best is None:
        raise NoCandidateError("no candidate pool has a free channel")
    return best
