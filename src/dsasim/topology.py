"""Static description of the shared-spectrum scenario.

Providers own channelized bands, secondary links are transmitter/receiver
pairs of the opportunistic system, and primary receiving points cap the
interference the secondary system may create.  Channel gains are either
supplied explicitly or derived from 2-D node positions with a power-law
path-loss model.  Everything here is immutable after construction and safe
to share between concurrent simulation runs.

Each class checks its fields when built, so that NaN fails, and so does
infinity where a run cannot use it: a bad one raises ValueError with a
message that starts with the field's name (``noise must be > 0``,
``noise must be finite``), to which the config parser prefixes the key path.
:func:`gains_from_positions` raises ValueError the same way, naming the
coincident nodes by their places in the topology (``links[0].tx coincides
with links[1].rx``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

Position = tuple[float, float]


def _check_position(name: str, position: Position) -> None:
    if not (len(position) == 2 and all(-math.inf < x < math.inf for x in position)):
        raise ValueError(f"{name} must be a finite (x, y) pair, got {position!r}")


def _check_finite(entity, *names: str) -> None:
    # run after the range checks, which NaN already fails
    for name in names:
        if getattr(entity, name) == math.inf:
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SpectrumChannel:
    """One channel of a provider's band."""

    id: int
    center_frequency: float  # Hz
    bandwidth: float  # Hz

    def __post_init__(self):
        for name in ("center_frequency", "bandwidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        _check_finite(self, "center_frequency", "bandwidth")


@dataclass(frozen=True)
class ServiceProvider:
    """A base station owning a channelized frequency band."""

    id: int
    channels: tuple[SpectrumChannel, ...]
    cost_rate: float  # currency units per minute

    def __post_init__(self):
        if not self.channels:
            raise ValueError("channels must be non-empty")
        if not self.cost_rate >= 0:
            raise ValueError("cost_rate must be >= 0")
        seen_ids = set()
        for k, channel in enumerate(self.channels):
            if channel.id in seen_ids:
                raise ValueError(f"channels[{k}].id duplicates channel id {channel.id}")
            seen_ids.add(channel.id)

    @property
    def num_channels(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class SecondaryLink:
    """A secondary transmitter/receiver pair with its QoS parameters.

    ``noise`` is the receiver noise floor in linear watts; dB-valued config
    inputs are converted before this object is built.  ``sinr_target`` is the
    minimum processing-gain-scaled SINR; a BER target is converted to it
    before this object is built, in the same way.
    """

    id: int
    tx_position: Position
    rx_position: Position
    bandwidth: float  # Hz spread over by this link
    rate: float  # bits/s
    rate_min: float
    rate_max: float
    power: float  # configured transmit power, watts
    power_max: float
    noise: float  # watts
    sinr_target: float

    def __post_init__(self):
        if not (0 < self.rate_min <= self.rate <= self.rate_max):
            raise ValueError(
                "rate_min, rate and rate_max must satisfy 0 < rate_min <= rate <= rate_max, "
                f"got ({self.rate_min}, {self.rate}, {self.rate_max})"
            )
        if not (0 <= self.power <= self.power_max):
            raise ValueError(
                "power and power_max must satisfy 0 <= power <= power_max, "
                f"got ({self.power}, {self.power_max})"
            )
        for name in ("noise", "sinr_target", "bandwidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        _check_position("tx_position", self.tx_position)
        _check_position("rx_position", self.rx_position)
        _check_finite(self, "noise", "sinr_target", "bandwidth", "power")

    @property
    def distance(self) -> float:
        """Transmitter-to-receiver distance in meters."""
        return math.dist(self.tx_position, self.rx_position)


@dataclass(frozen=True)
class PrimaryReceivingPoint:
    """A licensed receiver with a total secondary-interference tolerance."""

    id: int
    position: Position
    tolerance: float  # watts

    def __post_init__(self):
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")
        _check_position("position", self.position)


@dataclass(frozen=True, eq=False)
class GainMatrices:
    """Channel gains between secondary links and toward primary points.

    ``g_ss[j][i]`` is the gain from the transmitter of link ``i`` to the
    receiver of link ``j``; ``g_ps[j][i]`` is the gain from the transmitter
    of link ``i`` to primary receiving point ``j``.  Both are read-only
    float copies, so no one can change a built topology through them.

    ``g_ss_rows`` and ``g_ps_rows`` are the same matrices as tuples of rows
    of Python floats, which the event loop and the admission index without
    allocating a float per read.  Each is built on its first read, shared
    by every run on the topology and left out of a pickle, as a sweep
    worker gets it.  ``g_ss_rows`` costs N² floats: about 33 KB at 32
    links, but 32 MB and about 60 ms at 1,000, which a sweep that builds a
    topology per run pays per physical run.
    """

    g_ss: np.ndarray  # (N, N)
    g_ps: np.ndarray  # (M, N)

    def __post_init__(self):
        for name in ("g_ss", "g_ps"):
            try:
                matrix = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError):  # ragged rows or entries that are not numbers
                raise ValueError(f"{name} must be a matrix of numbers") from None
            matrix.flags.writeable = False
            object.__setattr__(self, name, matrix)

    def __reduce__(self):  # an unpickled copy, as a worker process gets, is read-only too
        return GainMatrices, (self.g_ss, self.g_ps)

    @functools.cached_property
    def g_ss_rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.g_ss.tolist()))

    @functools.cached_property
    def g_ps_rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.g_ps.tolist()))

    def __eq__(self, other):
        if not isinstance(other, GainMatrices):
            return NotImplemented
        return np.array_equal(self.g_ss, other.g_ss) and np.array_equal(
            self.g_ps, other.g_ps
        )


@dataclass(frozen=True)
class NetworkTopology:
    """The entities, each checked when built, and the checks that span them."""

    providers: tuple[ServiceProvider, ...]
    links: tuple[SecondaryLink, ...]
    primary_points: tuple[PrimaryReceivingPoint, ...]
    gains: GainMatrices
    propagation_speed: float = 3.0e8  # m/s

    def __post_init__(self):
        for key in ("providers", "links"):
            if not getattr(self, key):
                raise ValueError(f"{key} must be non-empty")
        # gain matrices and the event loop index entities by position, so ids
        # must equal list positions
        for key in ("providers", "links", "primary_points"):
            for position, entity in enumerate(getattr(self, key)):
                if entity.id != position:
                    raise ValueError(
                        f"{key}[{position}].id must equal its position, got {entity.id}"
                    )
        n, m = len(self.links), len(self.primary_points)
        g_ss, g_ps = self.gains.g_ss, self.gains.g_ps
        if g_ss.shape != (n, n):
            raise ValueError(f"gains.g_ss shape {g_ss.shape} must be ({n}, {n}), links x links")
        if g_ps.shape != (m, n):
            raise ValueError(f"gains.g_ps shape {g_ps.shape} must be ({m}, {n}), points x links")
        if not (np.all(g_ss >= 0) and np.all(g_ps >= 0)):
            raise ValueError("gains entries must be >= 0")
        for i in range(n):
            if not g_ss[i, i] > 0:
                raise ValueError(f"gains.g_ss[{i}][{i}] (diagonal) must be > 0")
        if not self.propagation_speed > 0:
            raise ValueError("propagation_speed must be > 0")
        if not (np.all(g_ss < math.inf) and np.all(g_ps < math.inf)):
            raise ValueError("gains entries must be finite")

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def total_channels(self) -> int:
        return sum(p.num_channels for p in self.providers)


def _pathloss_gain(distance: float, exponent: float, reference: float) -> float:
    # min(1, (d / d_ref) ** -alpha), clamping first so that the power cannot overflow
    return 1.0 if distance <= reference else (distance / reference) ** (-exponent)


def gains_from_positions(
    links: tuple[SecondaryLink, ...] | list[SecondaryLink],
    primary_points: tuple[PrimaryReceivingPoint, ...] | list[PrimaryReceivingPoint],
    path_loss_exponent: float = 3.0,
    reference_distance: float = 1.0,
) -> GainMatrices:
    """Populate gain matrices from node positions.

    Gain between two nodes is ``min(1, (d / d_ref) ** -alpha)``: a clamped
    power-law path loss with no fading, so gains are deterministic, in
    (0, 1], and monotone non-increasing in distance.

    A transmitter that coincides with a receiver or a primary point raises
    ValueError naming both (``links[0].tx coincides with links[1].rx``).
    """
    if not 2.0 <= path_loss_exponent < math.inf:
        raise ValueError(f"path_loss_exponent must be finite and >= 2, got {path_loss_exponent}")
    if not 0.0 < reference_distance < math.inf:
        raise ValueError(f"reference_distance must be finite and > 0, got {reference_distance}")

    n = len(links)
    m = len(primary_points)
    g_ss = np.empty((n, n), dtype=float)
    for j, rx_link in enumerate(links):
        for i, tx_link in enumerate(links):
            d = math.dist(tx_link.tx_position, rx_link.rx_position)
            if d <= 0.0:
                raise ValueError(f"links[{i}].tx coincides with links[{j}].rx")
            g_ss[j, i] = _pathloss_gain(d, path_loss_exponent, reference_distance)

    g_ps = np.empty((m, n), dtype=float)
    for j, point in enumerate(primary_points):
        for i, tx_link in enumerate(links):
            d = math.dist(tx_link.tx_position, point.position)
            if d <= 0.0:
                raise ValueError(f"links[{i}].tx coincides with primary_points[{j}].position")
            g_ps[j, i] = _pathloss_gain(d, path_loss_exponent, reference_distance)

    return GainMatrices(g_ss=g_ss, g_ps=g_ps)
