"""Seed-reproducible Poisson session workload.

Each provider gets an independent Poisson arrival stream (exponential
inter-arrival gaps) with exponentially distributed holding times.  Streams
are derived from one root seed through per-provider spawn keys of a
counter-based generator, so adding or removing a provider never perturbs
the draws of the others, and identical seeds give byte-identical streams.

Arrivals, plain ``(time, provider_id, holding_time)`` tuples, are drawn as
they are consumed: each provider's stream is a generator that holds one
block of at most ``BLOCK`` (32) log-uniforms, 16 arrivals' worth, as an
``array('d')``, and :class:`ArrivalStream` merges them in ``(time, provider
id)`` order while holding one pending arrival per provider, so a run never
keeps more of its arrival stream than that in memory.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

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
        # written so that NaN fails every check, and a value that is not a
        # number (or, for the rates, not a sequence) too; an infinite
        # horizon never ends
        for name, bound in (("arrival_rates", ">= 0"), ("mean_holding_time", "> 0"),
                            ("horizon", "> 0"), ("requested_rate", "> 0")):
            value = getattr(self, name)
            try:
                valid = (all(0 <= rate < math.inf for rate in value) if name == "arrival_rates"
                         else 0 < value < math.inf)
            except TypeError:
                valid = False
            if not valid:
                raise ValueError(f"{name} must be finite and {bound}")


BLOCK = 32  # uniforms drawn per generator call, 16 arrivals' worth


def provider_rng(seed: int, provider_id: int) -> Generator:
    """Independent deterministic sub-stream for one provider."""
    return Generator(Philox(SeedSequence(seed, spawn_key=(provider_id,))))


def provider_arrivals(spec: TrafficSpec, provider_id: int) -> Iterator[tuple[float, int, float]]:
    """One provider's ``(time, provider_id, holding_time)`` arrivals in time
    order, each drawn when it is asked for.

    Gaps and holding times are exponential by the inverse CDF, ``-mean *
    log(u)``, in the strict draw order (gap, holding, gap, holding, ...),
    ending with the first gap that reaches the horizon, so arrival ``k`` of
    a provider consumes the same underlying draws regardless of the other
    providers or of the arrival rate: scaling the rate only compresses the
    arrival clock.  The uniforms come ``BLOCK`` at a time, a sequence that
    does not depend on the block size; exact zeros are dropped (the scalar
    path's redraw of ``u == 0``, probability ~2**-53), by a filtered copy
    only when the block holds one.  One in-place ``np.log`` of the block,
    bit for bit the scalar logs, is appended from the array's own buffer
    to an ``array('d')``.  An odd log left over after the pairs carries
    into the next block.
    """
    rate = spec.arrival_rates[provider_id]
    if rate == 0.0:
        return
    rng = provider_rng(spec.seed, provider_id)
    mean_gap, mean_holding, horizon = 1.0 / rate, spec.mean_holding_time, spec.horizon
    t = 0.0
    logs = array("d")
    while True:
        u = rng.random(BLOCK)
        if np.count_nonzero(u) != len(u):  # ndarray.all runs a Python-level wrapper
            u = u[u != 0.0]
        logs.frombytes(memoryview(np.log(u, out=u)).cast("B"))
        del u  # the suspended generator holds the logs alone
        paired = len(logs) - len(logs) % 2
        for i in range(0, paired, 2):
            t -= mean_gap * logs[i]
            if t >= horizon:
                return
            yield t, provider_id, -mean_holding * logs[i + 1]
        del logs[:paired]


class ArrivalStream:
    """The merged, time-ordered arrival stream of every provider.

    Iterating merges fresh :func:`provider_arrivals` generators, each with
    its block of logs, with :func:`heapq.merge`, which holds one pending
    arrival per provider and compares the tuples themselves: equal times
    (impossible with continuous draws unless forced) go to the lower
    provider id, and a provider's own keep their draw order, because no two
    of them are pending at once; a lone provider's generator is the stream
    itself.  So the stream can be iterated again and repeats itself, and
    ``len()``, for callers that count arrivals (the benchmark's tracer
    does), draws the whole stream once more in O(1) memory.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: TrafficSpec):
        self.spec = spec

    def __iter__(self) -> Iterator[tuple[float, int, float]]:
        streams = [provider_arrivals(self.spec, i) for i in range(len(self.spec.arrival_rates))]
        return streams[0] if len(streams) == 1 else heapq.merge(*streams)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def build_event_stream(spec: TrafficSpec) -> ArrivalStream:
    """The merged, time-ordered arrival stream for all providers, drawn
    lazily as it is iterated (see :class:`ArrivalStream`)."""
    return ArrivalStream(spec)
