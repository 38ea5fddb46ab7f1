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

Scoring reads four summaries of a pool and nothing else: its free-channel
count, its min and max free center frequency and its lowest free channel id.
A :class:`CandidatePool` computes them from its tuple of free channels; the
simulation's :class:`LivePool` keeps them up to date as channels are taken
and given back, so each pool is scored in O(1) whatever its channel count.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import NoCandidateError, StateError
from .topology import ServiceProvider, SpectrumChannel

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


class LivePool:
    """One provider's pool, kept current as its channels are taken and given back.

    The free channels are two Python-int bitmasks with one bit per channel:
    ``id_mask`` in channel-id order and ``frequency_mask`` in center-frequency
    order (equal frequencies in id order).  Taking or giving back a channel
    flips its bit in each, found by bisecting the sorted ids, and refreshes
    the four summaries of :class:`CandidatePool` from the lowest and highest
    set bits.
    """

    __slots__ = (
        "provider", "provider_id", "total_channels", "session_minutes", "cost_rate",
        "_ids", "_frequency_rank", "_frequencies", "id_mask", "frequency_mask",
        "free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id",
    )

    def __init__(self, provider: ServiceProvider, session_minutes: float):
        self.provider = provider
        self.provider_id = provider.id
        self.total_channels = provider.num_channels
        self.session_minutes = session_minutes
        self.cost_rate = provider.cost_rate
        by_id = sorted(provider.channels, key=lambda ch: ch.id)
        # a stable sort, so equal frequencies stay in id order
        by_frequency = sorted(range(len(by_id)), key=lambda i: by_id[i].center_frequency)
        rank = [0] * len(by_id)
        for position, index in enumerate(by_frequency):
            rank[index] = position
        self._ids = tuple(ch.id for ch in by_id)
        self._frequency_rank = tuple(rank)  # id-order index -> frequency-order bit
        self._frequencies = tuple(by_id[i].center_frequency for i in by_frequency)
        self.id_mask = self.frequency_mask = (1 << len(by_id)) - 1
        self._summarise()

    def take(self, channel_id: int) -> None:
        """Mark a free channel held."""
        self._flip(channel_id, was_free=True)

    def give(self, channel_id: int) -> None:
        """Mark a held channel free again."""
        self._flip(channel_id, was_free=False)

    def _flip(self, channel_id: int, was_free: bool) -> None:
        index = bisect_left(self._ids, channel_id)
        bit = 1 << index
        if index == len(self._ids) or self._ids[index] != channel_id:
            raise StateError(f"provider {self.provider_id} has no channel {channel_id}")
        if bool(self.id_mask & bit) is not was_free:
            state = "held" if was_free else "free"
            raise StateError(f"channel {(self.provider_id, channel_id)} is already {state}")
        self.id_mask ^= bit
        self.frequency_mask ^= 1 << self._frequency_rank[index]
        self._summarise()

    def _summarise(self) -> None:
        by_id, by_frequency = self.id_mask, self.frequency_mask
        self.free_count = by_id.bit_count()
        if by_id:
            # x & -x keeps the lowest set bit; bit_length() - 1 is the highest
            self.lowest_free_id = self._ids[(by_id & -by_id).bit_length() - 1]
            lowest = (by_frequency & -by_frequency).bit_length() - 1
            self.min_free_frequency = self._frequencies[lowest]
            self.max_free_frequency = self._frequencies[by_frequency.bit_length() - 1]
        else:
            self.lowest_free_id = self.min_free_frequency = self.max_free_frequency = None

    @property
    def available_channels(self) -> tuple[SpectrumChannel, ...]:
        """The free channels in the provider's list order, built on each read
        in O(K); selection never reads it."""
        return tuple(
            ch for ch in self.provider.channels
            if self.id_mask >> bisect_left(self._ids, ch.id) & 1
        )

    def audit(self, held_channel_ids) -> None:
        """Rebuild the free set from the held channel ids; raises StateError
        if either bitmask, or a summary, differs from the rebuilt one."""
        held = set(held_channel_ids)
        free = tuple(ch for ch in self.provider.channels if ch.id not in held)
        id_mask = frequency_mask = 0
        for ch in free:
            index = bisect_left(self._ids, ch.id)
            id_mask |= 1 << index
            frequency_mask |= 1 << self._frequency_rank[index]
        if (self.id_mask, self.frequency_mask) != (id_mask, frequency_mask):
            raise StateError(
                f"provider {self.provider_id} pool masks {self.id_mask:b}, "
                f"{self.frequency_mask:b} differ from {id_mask:b}, {frequency_mask:b} "
                "rebuilt from the held channels"
            )
        snapshot = CandidatePool(
            self.provider_id, free, self.total_channels, self.session_minutes, self.cost_rate
        )
        for name in ("free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id"):
            if getattr(self, name) != getattr(snapshot, name):
                raise StateError(f"provider {self.provider_id} pool {name} is stale")


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


def availability_prob(pool: CandidatePool | LivePool) -> float:
    """Fraction of the pool's channels that are currently free."""
    if pool.total_channels <= 0:
        raise ValueError("pool has no channels")
    return pool.free_count / pool.total_channels


def frequency_spread(
    pool: CandidatePool | LivePool, unit_hz: float = DEFAULT_SPREAD_UNIT_HZ
) -> float:
    """Max minus min center frequency among the free channels, in `unit_hz`."""
    if not pool.free_count:
        raise NoCandidateError(f"pool {pool.provider_id} has no free channel")
    return (pool.max_free_frequency - pool.min_free_frequency) / unit_hz


def usage_cost(pool: CandidatePool | LivePool) -> float:
    """Session cost: duration in minutes times 60 times the per-minute rate."""
    return pool.session_minutes * 60.0 * pool.cost_rate


def channel_utility(
    pool: CandidatePool | LivePool,
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
    pools: list[CandidatePool | LivePool] | tuple[CandidatePool | LivePool, ...],
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
        if not pool.free_count:
            continue
        breakdown = channel_utility(
            pool,
            weights,
            spread_unit_hz=spread_unit_hz,
            spread_floor=spread_floor,
            cost_floor=cost_floor,
        )
        if best is None or breakdown.utility > best[2]:
            best = (pool.provider_id, pool.lowest_free_id, breakdown.utility)
    if best is None:
        raise NoCandidateError("no candidate pool has a free channel")
    return best
