"""Static description of the shared-spectrum scenario.

Providers own channelized bands, secondary links are transmitter/receiver
pairs of the opportunistic system, and primary receiving points cap the
interference the secondary system may create.  Channel gains are either
supplied explicitly or derived from 2-D node positions with a power-law
path-loss model.  Everything here is immutable after construction and safe
to share between concurrent simulation runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError

Position = tuple[float, float]


class Modulation(Enum):
    BPSK = "BPSK"
    QPSK = "QPSK"
    NONE = "NONE"


@dataclass(frozen=True)
class SpectrumChannel:
    """One channel of a provider's band."""

    id: int
    center_frequency: float  # Hz
    bandwidth: float  # Hz


@dataclass(frozen=True)
class ServiceProvider:
    """A base station owning a channelized frequency band."""

    id: int
    channels: tuple[SpectrumChannel, ...]
    cost_rate: float  # currency units per minute

    @property
    def num_channels(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class SecondaryLink:
    """A secondary transmitter/receiver pair with its QoS parameters.

    ``noise`` is the receiver noise floor in linear watts; dB-valued config
    inputs are converted before this object is built.  ``sinr_target`` is the
    minimum processing-gain-scaled SINR required by the link's BER target.
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
    modulation: Modulation = Modulation.NONE
    target_ber: float | None = None

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


@dataclass(frozen=True, eq=False)
class GainMatrices:
    """Channel gains between secondary links and toward primary points.

    ``g_ss[j][i]`` is the gain from the transmitter of link ``i`` to the
    receiver of link ``j``; ``g_ps[j][i]`` is the gain from the transmitter
    of link ``i`` to primary receiving point ``j``.
    """

    g_ss: np.ndarray  # (N, N)
    g_ps: np.ndarray  # (M, N)

    def __post_init__(self):
        object.__setattr__(self, "g_ss", np.asarray(self.g_ss, dtype=float))
        object.__setattr__(self, "g_ps", np.asarray(self.g_ps, dtype=float))

    def __eq__(self, other):
        if not isinstance(other, GainMatrices):
            return NotImplemented
        return np.array_equal(self.g_ss, other.g_ss) and np.array_equal(
            self.g_ps, other.g_ps
        )


@dataclass(frozen=True)
class NetworkTopology:
    providers: tuple[ServiceProvider, ...]
    links: tuple[SecondaryLink, ...]
    primary_points: tuple[PrimaryReceivingPoint, ...]
    gains: GainMatrices
    propagation_speed: float = 3.0e8  # m/s

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

    Raises
    ------
    GeometryError
        If any transmitter coincides with a receiver or primary point.
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
                raise GeometryError(
                    f"topology.links[{i}].tx coincides with topology.links[{j}].rx"
                )
            g_ss[j, i] = _pathloss_gain(d, path_loss_exponent, reference_distance)

    g_ps = np.empty((m, n), dtype=float)
    for j, point in enumerate(primary_points):
        for i, tx_link in enumerate(links):
            d = math.dist(tx_link.tx_position, point.position)
            if d <= 0.0:
                raise GeometryError(
                    f"topology.links[{i}].tx coincides with topology.primary_points[{j}].position"
                )
            g_ps[j, i] = _pathloss_gain(d, path_loss_exponent, reference_distance)

    return GainMatrices(g_ss=g_ss, g_ps=g_ps)


def validate_topology(topology: NetworkTopology) -> list[str]:
    """Check every structural invariant; return one message per violation,
    each naming its key path (``topology.links[1].noise must be > 0``).

    An empty list means every downstream operation's preconditions on the
    topology hold.  Violations are data, not exceptions.  Each test is
    written so that NaN fails it.
    """
    violations: list[str] = []

    if not topology.providers:
        violations.append("topology.providers must be non-empty")
    # gain matrices and the event loop index entities by position, so ids
    # must equal list positions
    for key, entities in (("providers", topology.providers), ("links", topology.links),
                          ("primary_points", topology.primary_points)):
        for position, entity in enumerate(entities):
            if entity.id != position:
                violations.append(
                    f"topology.{key}[{position}].id must equal its position, got {entity.id}"
                )
    for i, provider in enumerate(topology.providers):
        path = f"topology.providers[{i}]"
        if not provider.channels:
            violations.append(f"{path}.channels must be non-empty")
        if not provider.cost_rate >= 0:
            violations.append(f"{path}.cost_rate must be >= 0")
        seen_ids = set()
        for k, ch in enumerate(provider.channels):
            if ch.id in seen_ids:
                violations.append(f"{path}.channels[{k}].id duplicates channel id {ch.id}")
            seen_ids.add(ch.id)
            for name in ("center_frequency", "bandwidth"):
                if not getattr(ch, name) > 0:
                    violations.append(f"{path}.channels[{k}].{name} must be > 0")

    for i, link in enumerate(topology.links):
        path = f"topology.links[{i}]"
        if not (0 < link.rate_min <= link.rate <= link.rate_max):
            violations.append(
                f"{path}.rate_min, rate and rate_max must satisfy 0 < rate_min <= rate <= "
                f"rate_max, got ({link.rate_min}, {link.rate}, {link.rate_max})"
            )
        if not (0 <= link.power <= link.power_max):
            violations.append(
                f"{path}.power and power_max must satisfy 0 <= power <= power_max, "
                f"got ({link.power}, {link.power_max})"
            )
        for name in ("noise", "sinr_target", "bandwidth"):
            if not getattr(link, name) > 0:
                violations.append(f"{path}.{name} must be > 0")
        if link.target_ber is not None and not (0 < link.target_ber < 0.5):
            violations.append(f"{path}.target_ber must be in (0, 0.5)")

    for i, point in enumerate(topology.primary_points):
        if not point.tolerance >= 0:
            violations.append(f"topology.primary_points[{i}].tolerance must be >= 0")

    n = topology.num_links
    m = len(topology.primary_points)
    g_ss, g_ps = topology.gains.g_ss, topology.gains.g_ps
    if g_ss.shape != (n, n):
        violations.append(
            f"topology.gains.g_ss shape {g_ss.shape} must be ({n}, {n}), links x links"
        )
    if g_ps.shape != (m, n):
        violations.append(
            f"topology.gains.g_ps shape {g_ps.shape} must be ({m}, {n}), points x links"
        )
    if not (np.all(g_ss >= 0) and np.all(g_ps >= 0)):
        violations.append("topology.gains entries must be >= 0")
    if g_ss.shape == (n, n):
        for i in range(n):
            if not g_ss[i, i] > 0:
                violations.append(f"topology.gains.g_ss[{i}][{i}] (diagonal) must be > 0")

    if not topology.propagation_speed > 0:
        violations.append("topology.propagation_speed must be > 0")

    return violations
