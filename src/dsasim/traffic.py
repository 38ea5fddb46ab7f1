"""Seed-reproducible Poisson session workload.

Each provider gets an independent Poisson arrival stream (exponential
inter-arrival gaps) with exponentially distributed holding times.  Streams
are derived from one root seed through per-provider spawn keys of a
counter-based generator, so adding or removing a provider never perturbs
the draws of the others, and identical seeds give byte-identical streams.

Arrivals, plain ``(time, provider_id, holding_time)`` tuples, are drawn as
they are consumed: each provider's stream is a generator, and
:class:`ArrivalStream` merges them in ``(time, provider id)`` order while
holding one pending arrival per provider, so a run never keeps more of its
arrival stream than that in memory.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
# numpy imports numpy.random on first use; importing it here keeps that out of a run
from numpy.random import Generator, Philox, SeedSequence


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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        # written so that NaN fails every check; an infinite horizon never ends
        if not all(0 <= rate < math.inf for rate in self.arrival_rates):
            raise ValueError("arrival_rates must be finite and >= 0")
        for name in ("mean_holding_time", "horizon", "requested_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


def provider_rng(seed: int, provider_id: int) -> Generator:
    """Independent deterministic sub-stream for one provider."""
    return Generator(Philox(SeedSequence(seed, spawn_key=(provider_id,))))


def draw_exponential(rng: Generator, mean: float) -> float:
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


def provider_arrivals(spec: TrafficSpec, provider_id: int) -> Iterator[tuple[float, int, float]]:
    """One provider's ``(time, provider_id, holding_time)`` arrivals in time
    order, each drawn when it is asked for.

    The draw order is strictly (gap, holding, gap, holding, ...), ending
    with the first gap that reaches the horizon, so arrival ``k`` of a
    provider consumes the same underlying draws regardless of the other
    providers or of the arrival rate: scaling the rate only compresses the
    arrival clock.
    """
    rate = spec.arrival_rates[provider_id]
    if rate == 0.0:
        return
    rng = provider_rng(spec.seed, provider_id)
    mean_gap = 1.0 / rate
    t = 0.0
    while True:
        t += draw_exponential(rng, mean_gap)
        if t >= spec.horizon:
            return
        holding = draw_exponential(rng, spec.mean_holding_time)
        yield t, provider_id, holding


class ArrivalStream:
    """The merged, time-ordered arrival stream of every provider.

    Iterating merges fresh :func:`provider_arrivals` generators with the
    stable :func:`heapq.merge`, which holds one pending arrival per provider:
    equal times (impossible with continuous draws unless forced) go to the
    lower provider id, and a provider's own keep their draw order.  So the
    stream can be iterated again and repeats itself, and ``len()``, for
    callers that count arrivals (the benchmark's tracer does), draws the
    whole stream once more in O(1) memory.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: TrafficSpec):
        self.spec = spec

    def __iter__(self) -> Iterator[tuple[float, int, float]]:
        streams = [provider_arrivals(self.spec, i) for i in range(len(self.spec.arrival_rates))]
        return heapq.merge(*streams, key=itemgetter(0))

    def __len__(self) -> int:
        return sum(1 for _ in self)


def build_event_stream(spec: TrafficSpec) -> ArrivalStream:
    """The merged, time-ordered arrival stream for all providers, drawn
    lazily as it is iterated (see :class:`ArrivalStream`)."""
    return ArrivalStream(spec)
