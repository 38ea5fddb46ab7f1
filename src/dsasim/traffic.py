"""Seed-reproducible Poisson session workload.

Each provider gets an independent Poisson arrival stream (exponential
inter-arrival gaps) with exponentially distributed holding times.  Streams
are derived from one root seed through per-provider spawn keys of a
counter-based generator, so adding or removing a provider never perturbs
the draws of the others, and identical seeds give byte-identical streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrafficSpec:
    """Workload description for one simulation run.

    ``arrival_rates[i]`` is the session request rate (per second) at
    provider ``i``; ``requested_rate`` is the common data rate every session
    asks for, in bits per second.
    """

    arrival_rates: tuple[float, ...]
    mean_holding_time: float  # seconds
    horizon: float  # seconds
    seed: int
    requested_rate: float = 1.0e5  # bits/s

    def __post_init__(self):
        # written so that NaN fails every check; an infinite horizon never ends
        if not all(0 <= rate < math.inf for rate in self.arrival_rates):
            raise ValueError("arrival_rates must be finite and >= 0")
        for name in ("mean_holding_time", "horizon", "requested_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    time: float
    provider_id: int  # home base station of the requesting user
    holding_time: float  # seconds


def provider_rng(seed: int, provider_id: int) -> np.random.Generator:
    """Independent deterministic sub-stream for one provider."""
    sequence = np.random.SeedSequence(seed, spawn_key=(provider_id,))
    return np.random.Generator(np.random.Philox(sequence))


def draw_exponential(rng: np.random.Generator, mean: float) -> float:
    """Strictly positive exponential draw via the inverse CDF.

    Inverse-CDF sampling makes draws scale linearly with the mean for
    matched generator states, which several reproducibility tests rely on.
    """
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    u = rng.random()
    while u == 0.0:  # log(0) guard; probability ~2**-53 per draw
        u = rng.random()
    return -mean * float(np.log(u))


def build_event_stream(spec: TrafficSpec) -> list[ArrivalEvent]:
    """Generate the merged, time-ordered arrival stream for all providers.

    Per provider the draw order is strictly (gap, holding, gap, holding,
    ...), so arrival ``k`` of a provider consumes the same underlying draws
    regardless of the other providers or of the arrival rate: scaling the
    rate only compresses the arrival clock.  Ties (impossible with
    continuous draws unless forced) order by provider id.
    """
    events: list[ArrivalEvent] = []
    for provider_id, rate in enumerate(spec.arrival_rates):
        if rate == 0.0:
            continue
        rng = provider_rng(spec.seed, provider_id)
        mean_gap = 1.0 / rate
        t = 0.0
        while True:
            t += draw_exponential(rng, mean_gap)
            if t >= spec.horizon:
                break
            holding = draw_exponential(rng, spec.mean_holding_time)
            events.append(
                ArrivalEvent(time=t, provider_id=provider_id, holding_time=holding)
            )
    events.sort(key=lambda ev: (ev.time, ev.provider_id))
    return events
