"""The run report, which defines each metric, and the :func:`erlang_b` oracle
for the blocking of the fixed-allocation baseline, an M/M/K/K loss system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MetricsReport:
    """Metric suite for one simulation run plus its sweep metadata."""

    # s: link length / propagation speed, mean over admitted sessions (0.0 if none)
    mean_propagation_delay: float
    mean_rtt: float  # s: twice the delay, as an admitted session waits for nothing
    throughput: float  # bits/s: requested rate x active time within the horizon, over it
    mean_primary_interference: float  # watts, time and point averaged
    spectral_efficiency: float  # busy channels, time averaged, over all channels; in [0, 1]
    blocking_probability: float  # in [0, 1]; 0.0 when there were no arrivals
    arrivals: int = 0
    admitted: int = 0
    blocked_no_channel: int = 0
    blocked_qos: int = 0
    blocked_interference: int = 0
    metadata: dict = field(default_factory=dict)


def erlang_b(channels: int, offered_load: float) -> float:
    """Blocking probability of an M/M/K/K loss system.

    Numerically stable recursion ``B(k, a) = a B(k-1, a) / (k + a B(k-1, a))``
    starting from ``B(0, a) = 1``.
    """
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if not 0 <= offered_load < math.inf:
        raise ValueError(f"offered_load must be finite and >= 0, got {offered_load}")
    b = 1.0
    for k in range(1, channels + 1):
        b = offered_load * b / (k + offered_load * b)
    return b
