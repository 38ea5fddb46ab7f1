"""Best-available-channel selection over candidate provider pools.

Each provider with at least one free channel forms a candidate pool.  A pool
is scored by :func:`utility`, a weighted sum of three terms: the fraction of
its channels currently free, the log-reciprocal of the frequency spread of
the free channels in MHz (``SPREAD_UNIT_HZ``), and the reciprocal of the
expected session cost ``session_minutes * 60 * cost_rate``:

    utility = 10 * beta1 * free / total
            + beta2 * ln(1 / max(spread, SPREAD_FLOOR))
            + beta3 / max(cost, COST_FLOOR)

The pool with the highest utility wins (ties break toward the lowest
provider id) and the lowest-indexed free channel inside it is assigned.
The floors ``SPREAD_FLOOR`` (one free channel has zero spread) and
``COST_FLOOR`` (a provider that charges nothing has zero cost) keep the
formula total without reordering non-degenerate candidates.

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

SPREAD_UNIT_HZ = 1e6  # the spread term is scored in MHz
SPREAD_FLOOR = 1e-6  # MHz
COST_FLOOR = 1e-6  # currency units


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
        "provider", "provider_id", "total_channels", "cost_rate",
        "_ids", "_frequency_rank", "_frequencies", "id_mask", "frequency_mask",
        "free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id",
    )

    def __init__(self, provider: ServiceProvider):
        self.provider = provider
        self.provider_id = provider.id
        self.total_channels = provider.num_channels
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
        snapshot = CandidatePool(self.provider_id, free, self.total_channels, self.cost_rate)
        for name in ("free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id"):
            if getattr(self, name) != getattr(snapshot, name):
                raise StateError(f"provider {self.provider_id} pool {name} is stale")


@dataclass(frozen=True)
class SbacConfig:
    """Selection weights plus the expected session length the cost term prices."""

    weights: SbacWeights = field(default_factory=SbacWeights)
    session_minutes: float = 1.0


def utility(pool: CandidatePool | LivePool, config: SbacConfig) -> float:
    """Score one candidate pool; raises NoCandidateError on an empty pool."""
    if not pool.free_count:
        raise NoCandidateError(f"pool {pool.provider_id} has no free channel")
    weights = config.weights
    spread = (pool.max_free_frequency - pool.min_free_frequency) / SPREAD_UNIT_HZ
    cost = config.session_minutes * 60.0 * pool.cost_rate
    return (
        10.0 * weights.beta1 * (pool.free_count / pool.total_channels)
        + weights.beta2 * math.log(1.0 / max(spread, SPREAD_FLOOR))
        + weights.beta3 / max(cost, COST_FLOOR)
    )


def select_best_channel(
    pools: list[CandidatePool | LivePool] | tuple[CandidatePool | LivePool, ...],
    config: SbacConfig,
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
        score = utility(pool, config)
        if best is None or score > best[2]:
            best = (pool.provider_id, pool.lowest_free_id, score)
    if best is None:
        raise NoCandidateError("no candidate pool has a free channel")
    return best
