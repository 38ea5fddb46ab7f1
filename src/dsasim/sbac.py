"""Best-available-channel selection over candidate provider pools.

Each provider with at least one free channel forms a candidate pool.  A pool
is scored by a weighted sum of three terms: the fraction of its channels
currently free, the log-reciprocal of the frequency spread of the free
channels in MHz (``SPREAD_UNIT_HZ``), and the reciprocal of the expected
session cost ``session_minutes * 60 * cost_rate`` (an :class:`SbacConfig`
holds the weights and session length):

    utility = 10 * beta1 * free / total
            + beta2 * ln(1 / max(spread, SPREAD_FLOOR))
            + beta3 / max(cost, COST_FLOOR)

The pool with the highest utility wins (ties break toward the lowest
provider id) and the lowest-indexed free channel inside it is assigned.
The floors ``SPREAD_FLOOR`` (one free channel has zero spread) and
``COST_FLOOR`` (a provider that charges nothing has zero cost) keep the
formula total without reordering non-degenerate candidates.

A :class:`LivePool` keeps what selection reads current as channels are
taken and given back: its free-channel count, its lowest free channel id
and, built with an :class:`SbacConfig`, its ``score``.  The run's weights,
session length and the provider's cost rate never change, so the pool folds
them into three scalars when it is built (``10 * beta1``, ``beta2`` and the
whole cost term) and re-scores each take and give from those and the
extreme bits of a frequency bitmask, so selecting among P pools is a max
over P cached floats.  A lone candidate (fixed allocation's home pool) wins
without being scored.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

from .errors import StateError
from .topology import ServiceProvider, SpectrumChannel

SPREAD_UNIT_HZ = 1e6  # the spread term is scored in MHz
SPREAD_FLOOR = 1e-6  # MHz
COST_FLOOR = 1e-6  # currency units
# |ln(1 / spread)| at the widest spread in MHz between two finite frequencies
WIDEST_SPREAD_LOG = -math.log(1.0 / (sys.float_info.max / SPREAD_UNIT_HZ))


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
        # each pool folds these into its score's constants; a term that
        # overflows can make a score NaN (inf - inf), one that selection
        # neither prefers nor skips.  So each term's largest value must be
        # finite (10 * beta1 for a full pool, beta2 times |ln(1 / spread)| at
        # the widest spread two finite frequencies have, beta3 at the cost
        # floor), and so must their largest sum
        if self.session_minutes == math.inf:
            raise ValueError("session_minutes must be finite, got inf")
        largest = (10.0 * self.beta1, self.beta2 * WIDEST_SPREAD_LOG, self.beta3 / COST_FLOOR)
        for name, term in zip(("beta1", "beta2", "beta3"), largest):
            if term == math.inf:
                raise ValueError(
                    f"{name} must be finite and keep every pool's score finite, "
                    f"got {getattr(self, name)}"
                )
        if largest[0] + self.beta2 * math.log(1.0 / SPREAD_FLOOR) + largest[2] == math.inf:
            raise ValueError("beta1 + beta2 + beta3 must keep every pool's score finite")


class LivePool:
    """One provider's pool, kept current as its channels are taken and given back.

    The free channels are two Python-int bitmasks with one bit per channel:
    ``id_mask`` in channel-id order and ``frequency_mask`` in center-frequency
    order (equal frequencies in id order).  Taking or giving back a channel
    flips its bit in each, found by bisecting the sorted ids, and refreshes
    what selection reads, ``free_count``, ``lowest_free_id`` and ``score``:
    the utility while a channel is free, None when none is or the pool has
    no config.  The score's spread is read off the lowest and highest
    frequency bits; the audit reads them as the min and max free frequency.
    """

    __slots__ = (
        "provider", "provider_id", "total_channels", "cost_rate", "config",
        "_ids", "_frequency_rank", "_frequencies", "id_mask", "frequency_mask",
        "free_count", "lowest_free_id", "score",
        "_free_weight", "_spread_weight", "_cost_term",
    )

    def __init__(self, provider: ServiceProvider, config: SbacConfig | None = None):
        self.provider = provider
        self.config = config
        self.provider_id = provider.id
        self.total_channels = provider.num_channels
        self.cost_rate = provider.cost_rate
        if config is not None:
            # the utility's constants, as its float operations group them:
            # 10 * beta1 * x is (10 * beta1) * x
            self._free_weight = 10.0 * config.beta1
            self._spread_weight = config.beta2
            cost = config.session_minutes * 60.0 * provider.cost_rate
            self._cost_term = config.beta3 / max(cost, COST_FLOOR)
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
        self._flip(channel_id, 1)

    def give(self, channel_id: int) -> None:
        """Mark a held channel free again."""
        self._flip(channel_id, 0)

    def _flip(self, channel_id: int, free_bit: int) -> None:
        """Flip the bit of ``channel_id``, which must read ``free_bit`` (1 free)."""
        ids = self._ids
        index = bisect_left(ids, channel_id)
        if index == len(ids) or ids[index] != channel_id:
            raise StateError(f"provider {self.provider_id} has no channel {channel_id}")
        if self.id_mask >> index & 1 != free_bit:
            state = "held" if free_bit else "free"
            raise StateError(f"channel {(self.provider_id, channel_id)} is already {state}")
        self.id_mask ^= 1 << index
        self.frequency_mask ^= 1 << self._frequency_rank[index]
        self._summarise()

    def _summarise(self) -> None:
        by_id = self.id_mask
        self.free_count = free = by_id.bit_count()
        if not by_id:
            self.lowest_free_id = self.score = None
            return
        # x & -x keeps the lowest set bit
        self.lowest_free_id = self._ids[(by_id & -by_id).bit_length() - 1]
        if self.config is None:
            self.score = None
            return
        # the max and min free frequency, read as the properties below do
        mask, frequencies = self.frequency_mask, self._frequencies
        spread = (frequencies[mask.bit_length() - 1]
                  - frequencies[(mask & -mask).bit_length() - 1]) / SPREAD_UNIT_HZ
        floored = spread if spread > SPREAD_FLOOR else SPREAD_FLOOR  # max() without a call
        self.score = (
            self._free_weight * (free / self.total_channels)
            + self._spread_weight * math.log(1.0 / floored)
            + self._cost_term
        )

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
        """Recount the free channels from the held channel ids, over the
        provider's channel tuple rather than the bitmasks, and re-score the
        pool from the recount; raises StateError if either bitmask, a
        summary or the cached score differs."""
        held = set(held_channel_ids)
        free = [ch for ch in self.provider.channels if ch.id not in held]
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
        frequencies = [ch.center_frequency for ch in free]
        recount = (len(free), min(frequencies, default=None), max(frequencies, default=None),
                   min((ch.id for ch in free), default=None))
        names = ("free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id")
        for name, value in zip(names, recount):
            if getattr(self, name) != value:
                raise StateError(f"provider {self.provider_id} pool {name} is stale")
        # the masks equal the recount's, so summarising them re-scores it
        score = self.score
        self._summarise()
        if self.score != score:
            raise StateError(
                f"provider {self.provider_id} pool score {score} differs from {self.score} "
                "scored from the held channels"
            )


def select_best_channel(
    pools: list[LivePool] | tuple[LivePool, ...],
) -> tuple[int, int, float | None] | None:
    """Pick the pool with the highest cached ``score`` and its lowest free channel.

    Returns ``(provider_id, channel_id, score)``, or None when no pool has
    a free channel, which the simulation records as a blocked call.  The
    pools must share one :class:`SbacConfig`, or, as a lone candidate, have
    none (the score is then None).  Pools without free channels are skipped.
    """
    best = best_score = None
    for pool in pools:
        if not pool.free_count:
            continue
        score = pool.score
        if best is None or score > best_score or (
            score == best_score and pool.provider_id < best.provider_id
        ):
            best, best_score = pool, score
    if best is None:
        return None
    return best.provider_id, best.lowest_free_id, best_score
