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
and its ``score``.  The run's weights, session length and the provider's
cost rate never change, so the pool folds them into three scalars when it
is built (``10 * beta1``, ``beta2`` and the whole cost term).  It re-scores
each take and give from those, the free count and a cached spread term,
which only a take or give that moves the lowest or highest free frequency
recomputes.  The pools of a run keep their scores in one shared list,
``NO_FREE`` while a pool has no free channel, so selecting among P pools is
one C-level ``max`` of that list and a ``list.index`` of the maximum.
Fixed allocation builds no pool: its lone candidate is the home provider,
whose free ids the run keeps as a heap (:mod:`dsasim.engine`).
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
# a scored pool's score while it has no free channel; every score is finite
NO_FREE = -math.inf


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

    The pool keeps its free channels as ``bytearray`` s, 1 for a free
    channel: ``free_by_id`` in channel-id order and ``free_by_frequency`` in
    center-frequency order (equal frequencies in id order).  Each ends in a
    1 that is no channel, and ``free_by_frequency`` also starts with one, so
    ``find`` and ``rfind`` always land: on an end byte when no channel is
    free, which reads as no lowest free id and no free frequency.  A take
    or a give sets one byte in each, moves ``free_count``,
    ``lowest_free_id`` (taking it needs no bisect) and the free-frequency
    extremes' positions, and re-scores the pool, recomputing the spread
    term ``beta2 * ln(1 / max(spread, SPREAD_FLOOR))`` only when an extreme
    moved.  It writes the score into its slot of the ``scores`` list it was
    built with (its own when none is given), ``NO_FREE`` while none is free.
    """

    __slots__ = (
        "provider", "provider_id", "total_channels", "cost_rate", "config",
        "free_count", "lowest_free_id", "free_by_id", "free_by_frequency", "_scores", "_slot",
        "_ids", "_frequency_rank", "_frequencies", "_low", "_high",
        "_free_weight", "_spread_weight", "_spread_term", "_cost_term",
    )

    def __init__(self, provider: ServiceProvider, config: SbacConfig,
                 scores: list[float] | None = None):
        self.provider = provider
        self.config = config
        self.provider_id = provider.id
        self.total_channels = count = provider.num_channels
        self.cost_rate = provider.cost_rate
        self.free_count = count
        # the utility's constants, as its float operations group them:
        # 10 * beta1 * x is (10 * beta1) * x
        self._free_weight = 10.0 * config.beta1
        self._spread_weight = config.beta2
        cost = config.session_minutes * 60.0 * provider.cost_rate
        self._cost_term = config.beta3 / max(cost, COST_FLOOR)
        by_id = sorted(provider.channels, key=lambda ch: ch.id)
        # a stable sort, so equal frequencies stay in id order
        by_frequency = sorted(range(count), key=lambda i: by_id[i].center_frequency)
        rank = [0] * count
        for position, index in enumerate(by_frequency, start=1):
            rank[index] = position
        self._ids = (*(ch.id for ch in by_id), None)
        self._frequency_rank = tuple(rank)  # id-order index -> frequency-order byte
        self._frequencies = (None, *(by_id[i].center_frequency for i in by_frequency), None)
        self.free_by_id = bytearray(b"\x01") * (count + 1)
        self.free_by_frequency = bytearray(b"\x01") * (count + 2)
        self.lowest_free_id = self._ids[0]
        self._scores = scores = [] if scores is None else scores
        self._slot = len(scores)
        scores.append(NO_FREE)
        self._summarise()

    def take(self, channel_id: int) -> None:
        """Mark a free channel held."""
        by_id = self.free_by_id
        if channel_id == self.lowest_free_id and self.free_count:
            index = by_id.find(1)
            by_id[index] = 0
            self.lowest_free_id = self._ids[by_id.find(1, index)]
        else:
            index = self._index(channel_id)
            if not by_id[index]:
                raise StateError(f"channel {(self.provider_id, channel_id)} is already held")
            by_id[index] = 0
        self.free_count = free = self.free_count - 1
        rank = self._frequency_rank[index]
        by_frequency = self.free_by_frequency
        by_frequency[rank] = 0
        # an extreme moves inward; with none free, onto the bytes that are no channel
        moved = False
        if rank == self._low:
            self._low = by_frequency.find(1, rank)
            moved = True
        if rank == self._high:
            self._high = by_frequency.rfind(1, 0, rank)
            moved = True
        if moved:
            if not free:
                self._scores[self._slot] = NO_FREE
                return
            frequencies = self._frequencies
            spread = (frequencies[self._high] - frequencies[self._low]) / SPREAD_UNIT_HZ
            floored = spread if spread > SPREAD_FLOOR else SPREAD_FLOOR
            self._spread_term = self._spread_weight * math.log(1.0 / floored)
        self._scores[self._slot] = (
            self._free_weight * (free / self.total_channels)
            + self._spread_term + self._cost_term
        )

    def give(self, channel_id: int) -> None:
        """Mark a held channel free again."""
        ids = self._ids  # _index inline: one call fewer per departure
        try:  # None, or any id that does not compare with an int, fails the bisect
            index = bisect_left(ids, channel_id, 0, self.total_channels)
        except TypeError:
            raise StateError(f"provider {self.provider_id} has no channel {channel_id}") from None
        if ids[index] != channel_id:
            raise StateError(f"provider {self.provider_id} has no channel {channel_id}")
        by_id = self.free_by_id
        if by_id[index]:
            raise StateError(f"channel {(self.provider_id, channel_id)} is already free")
        by_id[index] = 1
        lowest = self.lowest_free_id
        if lowest is None or channel_id < lowest:
            self.lowest_free_id = channel_id
        self.free_count = free = self.free_count + 1
        rank = self._frequency_rank[index]
        self.free_by_frequency[rank] = 1
        # an extreme moves outward; into a pool with none free, both do
        moved = False
        if rank < self._low:
            self._low = rank
            moved = True
        if rank > self._high:
            self._high = rank
            moved = True
        if moved:
            frequencies = self._frequencies
            spread = (frequencies[self._high] - frequencies[self._low]) / SPREAD_UNIT_HZ
            floored = spread if spread > SPREAD_FLOOR else SPREAD_FLOOR
            self._spread_term = self._spread_weight * math.log(1.0 / floored)
        self._scores[self._slot] = (
            self._free_weight * (free / self.total_channels)
            + self._spread_term + self._cost_term
        )

    def _index(self, channel_id: int) -> int:
        """``channel_id``'s position in the pool's id order; StateError when
        the provider has no such channel."""
        ids = self._ids
        try:  # None, or any id that does not compare with an int, fails the bisect
            index = bisect_left(ids, channel_id, 0, self.total_channels)
        except TypeError:
            raise StateError(f"provider {self.provider_id} has no channel {channel_id}") from None
        if ids[index] != channel_id:  # the trailing None when past the largest id
            raise StateError(f"provider {self.provider_id} has no channel {channel_id}")
        return index

    def _summarise(self) -> None:
        """Re-read the free-frequency extremes from the bytes and re-score the
        pool from them, as a take or a give that moves an extreme does: when
        the pool is built and on an audit."""
        scores = self._scores
        by_frequency = self.free_by_frequency
        self._low = low = by_frequency.find(1, 1)
        self._high = high = by_frequency.rfind(1, 0, -1)
        free = self.free_count
        if not free:
            scores[self._slot] = NO_FREE
            return
        frequencies = self._frequencies
        spread = (frequencies[high] - frequencies[low]) / SPREAD_UNIT_HZ
        floored = spread if spread > SPREAD_FLOOR else SPREAD_FLOOR  # max() without a call
        self._spread_term = self._spread_weight * math.log(1.0 / floored)
        scores[self._slot] = (
            self._free_weight * (free / self.total_channels)
            + self._spread_term + self._cost_term
        )

    @property
    def score(self) -> float | None:
        """The utility while a channel is free, None when none is."""
        score = self._scores[self._slot]
        return None if score == NO_FREE else score

    @property
    def min_free_frequency(self) -> float | None:
        return self._frequencies[self._low]

    @property
    def max_free_frequency(self) -> float | None:
        return self._frequencies[self._high]

    @property
    def available_channels(self) -> tuple[SpectrumChannel, ...]:
        """The free channels in the provider's list order, built on each read
        in O(K); selection never reads it."""
        by_id = self.free_by_id
        return tuple(ch for ch in self.provider.channels if by_id[self._index(ch.id)])

    def audit(self, held_channel_ids) -> None:
        """Recount the free channels from the held channel ids, over the
        provider's channel tuple rather than the pool's own state, and
        re-score the pool from the recount; raises StateError if a byte
        mask, a summary, the kept extremes or the cached score differs."""
        held = set(held_channel_ids)
        free = [ch for ch in self.provider.channels if ch.id not in held]
        by_id = bytearray(len(self.free_by_id))
        by_frequency = bytearray(len(self._frequencies))
        by_id[-1] = by_frequency[0] = by_frequency[-1] = 1
        for ch in free:
            index = self._index(ch.id)
            by_id[index] = by_frequency[self._frequency_rank[index]] = 1
        if (self.free_by_id, self.free_by_frequency) != (by_id, by_frequency):
            raise StateError(
                f"provider {self.provider_id} pool masks {self.free_by_id.hex()}, "
                f"{self.free_by_frequency.hex()} differ from {by_id.hex()}, "
                f"{by_frequency.hex()} rebuilt from the held channels"
            )
        frequencies = [ch.center_frequency for ch in free]
        recount = (len(free), min(frequencies, default=None), max(frequencies, default=None),
                   min((ch.id for ch in free), default=None))
        names = ("free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id")
        for name, value in zip(names, recount):
            if getattr(self, name) != value:
                raise StateError(f"provider {self.provider_id} pool {name} is stale")
        # the bytes equal the recount's, so summarising them re-scores it
        extremes, score = (self._low, self._high), self.score
        self._summarise()
        if (self._low, self._high) != extremes:
            raise StateError(f"provider {self.provider_id} pool free-frequency extremes are stale")
        if self.score != score:
            raise StateError(
                f"provider {self.provider_id} pool score {score} differs from {self.score} "
                "scored from the held channels"
            )


def select_best_channel(
    pools: list[LivePool] | tuple[LivePool, ...], scores: list[float],
) -> tuple[int, int, float] | None:
    """Pick the pool with the highest score and its lowest free channel.

    ``scores`` is the list the ``pools`` were built with, in the same
    order, so ``scores[i]`` is ``pools[i]``'s score or ``NO_FREE``.  The
    first of the equal highest wins, which is the lowest provider id when
    the pools are in provider-id order (:class:`NetworkTopology` makes each
    provider's id its position).

    Returns ``(provider_id, channel_id, score)``, or None when no pool has
    a free channel, which the simulation records as a blocked call.
    """
    best = max(scores) if scores else NO_FREE  # max(default=) parses keywords, slower
    if best == NO_FREE:
        return None
    pool = pools[scores.index(best)]
    return pool.provider_id, pool.lowest_free_id, best
