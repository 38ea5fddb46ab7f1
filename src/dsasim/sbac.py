"""Best-available-channel selection over candidate provider pools.

Each provider with at least one free channel forms a candidate pool.  A pool
is scored by :func:`utility`, a weighted sum of three terms: the fraction of
its channels currently free, the log-reciprocal of the frequency spread of
the free channels in MHz (``SPREAD_UNIT_HZ``), and the reciprocal of the
expected session cost ``session_minutes * 60 * cost_rate`` (an
:class:`SbacConfig` holds the weights and session length):

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
A :class:`CandidatePool` computes them from its tuple of free channels and
is scored when offered.  The simulation's :class:`LivePool` keeps them
current as channels are taken and given back (the two frequencies as reads
of a bitmask) and, built with an :class:`SbacConfig`, caches its ``score``,
recomputed on each take and give, so selecting among P live pools is a max
over P cached floats.  A lone candidate (fixed allocation's home pool)
wins without being scored.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import StateError
from .topology import ServiceProvider, SpectrumChannel

SPREAD_UNIT_HZ = 1e6  # the spread term is scored in MHz
SPREAD_FLOOR = 1e-6  # MHz
COST_FLOOR = 1e-6  # currency units


@dataclass(frozen=True)
class SbacConfig:
    """The utility weights and the session length, in minutes, that the cost
    term prices; a bad field raises ValueError naming it."""

    beta1: float = 0.5
    beta2: float = 0.3
    beta3: float = 0.2
    session_minutes: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every check; at session_minutes <= 0 every
        # cost falls to COST_FLOOR and the cost term stops ranking providers
        for name in ("beta1", "beta2", "beta3"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.beta1 + self.beta2 + self.beta3 > 0:
            raise ValueError("beta1 + beta2 + beta3 must be > 0")
        if not self.session_minutes > 0:
            raise ValueError(f"session_minutes must be > 0, got {self.session_minutes}")


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
    what selection reads, ``free_count``, ``lowest_free_id`` and ``score``:
    ``utility(self, config)`` while a channel is free, None when none is or
    the pool has no config.  Only scoring and the audit read the min and
    max free frequency, properties on the lowest and highest frequency bit.
    """

    __slots__ = (
        "provider", "provider_id", "total_channels", "cost_rate", "config",
        "_ids", "_frequency_rank", "_frequencies", "id_mask", "frequency_mask",
        "free_count", "lowest_free_id", "score",
    )

    def __init__(self, provider: ServiceProvider, config: SbacConfig | None = None):
        self.provider = provider
        self.config = config
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
        by_id = self.id_mask
        self.free_count = by_id.bit_count()
        if by_id:
            # x & -x keeps the lowest set bit
            self.lowest_free_id = self._ids[(by_id & -by_id).bit_length() - 1]
            self.score = None if self.config is None else utility(self, self.config)
        else:
            self.lowest_free_id = self.score = None

    @property
    def min_free_frequency(self) -> float | None:
        mask = self.frequency_mask
        return self._frequencies[(mask & -mask).bit_length() - 1] if mask else None

    @property
    def max_free_frequency(self) -> float | None:
        mask = self.frequency_mask  # bit_length() - 1 is the highest set bit
        return self._frequencies[mask.bit_length() - 1] if mask else None

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
        if either bitmask, a summary or the score differs from the rebuilt
        one."""
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
        score = None if self.config is None or not free else utility(snapshot, self.config)
        if self.score != score:
            raise StateError(
                f"provider {self.provider_id} pool score {self.score} differs from {score} "
                "scored from the held channels"
            )


def utility(pool: CandidatePool | LivePool, config: SbacConfig) -> float:
    """Score one candidate pool; raises ValueError on a pool with no free
    channel, which is no candidate."""
    if not pool.free_count:
        raise ValueError(f"pool {pool.provider_id} has no free channel")
    spread = (pool.max_free_frequency - pool.min_free_frequency) / SPREAD_UNIT_HZ
    cost = config.session_minutes * 60.0 * pool.cost_rate
    return (
        10.0 * config.beta1 * (pool.free_count / pool.total_channels)
        + config.beta2 * math.log(1.0 / max(spread, SPREAD_FLOOR))
        + config.beta3 / max(cost, COST_FLOOR)
    )


def select_best_channel(
    pools: list[CandidatePool | LivePool] | tuple[CandidatePool | LivePool, ...],
    config: SbacConfig,
) -> tuple[int, int, float | None] | None:
    """Pick the highest-utility pool and its lowest-indexed free channel.

    Returns ``(provider_id, channel_id, utility)``, or None when no pool has
    a free channel, which the simulation records as a blocked call.  A
    :class:`LivePool`'s utility is its cached ``score``, so it must have
    been built with ``config``, or, as a lone candidate, without one (its
    utility is then None); any other pool is scored by :func:`utility`.
    Pools without free channels are skipped.
    """
    best = best_score = None
    for pool in pools:
        if not pool.free_count:
            continue
        score = pool.score if type(pool) is LivePool else utility(pool, config)
        if best is None or score > best_score or (
            score == best_score and pool.provider_id < best.provider_id
        ):
            best, best_score = pool, score
    if best is None:
        return None
    return best.provider_id, best.lowest_free_id, best_score
