"""The run report, which defines each metric, and two oracles for it:
:func:`mean_primary_interference` integrates a load trace from scratch, and
:func:`erlang_b` gives the blocking of the fixed-allocation baseline, which
behaves as an M/M/K/K loss system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TraceError

_TILE_TOLERANCE = 1e-9


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
