"""Poisson workload generation: statistics, determinism, independence."""
from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import math
from operator import itemgetter

import numpy as np
import pytest

from dsasim import TrafficSpec, build_event_stream
from dsasim import traffic
from dsasim.traffic import provider_arrivals


def scalar_stream(spec):
    """The reference stream: one scalar draw per gap and per holding time,
    redrawing an exact zero, merged by (time, provider id) through a key."""

    def draw(rng, mean):
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return -mean * float(np.log(u))

    def arrivals(provider_id):
        rate = spec.arrival_rates[provider_id]
        if rate == 0.0:
            return
        rng = traffic.provider_rng(spec.seed, provider_id)
        t = 0.0
        while True:
            t += draw(rng, 1.0 / rate)
            if t >= spec.horizon:
                return
            yield t, provider_id, draw(rng, spec.mean_holding_time)

    streams = [arrivals(i) for i in range(len(spec.arrival_rates))]
    return list(heapq.merge(*streams, key=itemgetter(0)))


class ScriptedRng:
    """Stands in for a provider's generator: ``random()`` and ``random(n)``
    hand out ``script`` in order, then 0.5 for ever."""

    def __init__(self, script):
        self.values = itertools.chain(script, itertools.repeat(0.5))

    def random(self, size=None):
        if size is None:
            return next(self.values)
        return np.array(list(itertools.islice(self.values, size)))


def test_zero_rate_gives_empty_stream():
    spec = TrafficSpec(arrival_rates=(0.0, 0.0), mean_holding_time=1.0, horizon=100.0, seed=1)
    assert list(iter(build_event_stream(spec))) == []


def test_arrival_count_and_mean_gap_match_rate():
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=5.0, horizon=1e5, seed=42)
    events = list(iter(build_event_stream(spec)))
    assert abs(len(events) - 1e5) < 3 * math.sqrt(1e5)
    gaps = np.diff([0.0] + [t for t, _, _ in events])
    assert gaps.mean() == pytest.approx(1.0, rel=0.01)


def test_same_seed_gives_identical_stream():
    spec = TrafficSpec(arrival_rates=(0.8, 0.2), mean_holding_time=3.0, horizon=500.0, seed=77)
    assert list(iter(build_event_stream(spec))) == list(iter(build_event_stream(spec)))


def test_different_seed_gives_different_stream():
    a = TrafficSpec(arrival_rates=(0.8,), mean_holding_time=3.0, horizon=500.0, seed=1)
    b = TrafficSpec(arrival_rates=(0.8,), mean_holding_time=3.0, horizon=500.0, seed=2)
    assert list(iter(build_event_stream(a))) != list(iter(build_event_stream(b)))


def test_holding_time_sample_mean():
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=100.0, horizon=1e5, seed=999)
    holdings = np.array([holding for _, _, holding in provider_arrivals(spec, 0)])
    assert holdings.mean() == pytest.approx(100.0, rel=0.01)


def test_holding_times_strictly_positive():
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=0.5, horizon=1e4, seed=3)
    assert all(holding > 0.0 for _, _, holding in provider_arrivals(spec, 0))


def test_draws_scale_linearly_with_mean():
    # inverse-CDF sampling: the same uniforms give proportional draws
    a = TrafficSpec(arrival_rates=(0.5,), mean_holding_time=10.0, horizon=400.0, seed=5)
    b = dataclasses.replace(a, arrival_rates=(1.5,), mean_holding_time=30.0, horizon=400.0 / 3)
    events_a, events_b = list(provider_arrivals(a, 0)), list(provider_arrivals(b, 0))
    assert len(events_a) == len(events_b) > 150
    for (t_a, _, holding_a), (t_b, _, holding_b) in zip(events_a, events_b):
        assert t_b == pytest.approx(t_a / 3.0, rel=1e-12)
        assert holding_b == pytest.approx(3.0 * holding_a, rel=1e-12)


def test_superposition_of_two_streams():
    spec = TrafficSpec(arrival_rates=(0.7, 0.3), mean_holding_time=5.0, horizon=1e5, seed=7)
    events = build_event_stream(spec)
    empirical_rate = len(events) / 1e5
    assert abs(empirical_rate - 1.0) < 3 * math.sqrt(1e5) / 1e5


def test_stream_is_strictly_time_ordered():
    spec = TrafficSpec(arrival_rates=(2.0, 2.0, 2.0), mean_holding_time=1.0, horizon=2000.0, seed=13)
    events = build_event_stream(spec)
    times = [t for t, _, _ in events]
    assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))
    assert all(0.0 <= t < 2000.0 for t in times)


def test_adding_a_provider_does_not_perturb_others():
    base = TrafficSpec(arrival_rates=(0.5,), mean_holding_time=5.0, horizon=1000.0, seed=11)
    extended = TrafficSpec(
        arrival_rates=(0.5, 2.0), mean_holding_time=5.0, horizon=1000.0, seed=11
    )
    only = list(iter(build_event_stream(base)))
    mixed = [e for e in build_event_stream(extended) if e[1] == 0]  # provider 0's
    assert only == mixed


def test_events_carry_common_requested_rate_and_holding():
    # the common rate lives on the spec alone and changes no draw
    spec = TrafficSpec(
        arrival_rates=(1.0,), mean_holding_time=2.0, horizon=100.0, seed=4,
        requested_rate=2.5e5,
    )
    events = list(iter(build_event_stream(spec)))
    assert events
    assert events == list(iter(build_event_stream(dataclasses.replace(spec, requested_rate=1e5))))
    assert all(holding > 0 for _, _, holding in events)


def test_spec_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        TrafficSpec(arrival_rates=(-1.0,), mean_holding_time=1.0, horizon=10.0, seed=0)
    with pytest.raises(ValueError):
        TrafficSpec(arrival_rates=(1.0,), mean_holding_time=0.0, horizon=10.0, seed=0)
    with pytest.raises(ValueError):
        TrafficSpec(arrival_rates=(1.0,), mean_holding_time=1.0, horizon=0.0, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("arrival_rates", (math.nan,)),
        ("arrival_rates", (math.inf,)),
        ("mean_holding_time", math.nan),
        ("mean_holding_time", math.inf),
        ("horizon", math.nan),
        ("horizon", math.inf),
        ("requested_rate", math.nan),
        ("requested_rate", math.inf),
        ("requested_rate", 0.0),
        ("requested_rate", -1e5),
        # of another type: a bare rate, and strings
        ("arrival_rates", 0.5),
        ("arrival_rates", ("1",)),
        ("mean_holding_time", "1"),
        ("horizon", "1"),
        ("requested_rate", "1"),
    ],
)
def test_spec_rejects_non_finite_or_non_positive_parameters(field, value):
    # a NaN or infinite horizon or rate would never end the arrival stream
    spec = dict(arrival_rates=(1.0,), mean_holding_time=1.0, horizon=10.0, seed=0)
    with pytest.raises(ValueError, match=field):
        TrafficSpec(**{**spec, field: value})


@pytest.mark.parametrize("seed", [-3, 1.5, True, "7", None])
def test_spec_rejects_a_seed_that_is_not_an_integer_at_least_zero(seed):
    # numpy would reject -3 and 1.5 only at the first draw, deep inside a run
    with pytest.raises(ValueError, match="seed"):
        TrafficSpec(arrival_rates=(1.0,), mean_holding_time=1.0, horizon=10.0, seed=seed)


def test_stream_ties_order_by_provider_and_keep_each_providers_draw_order(monkeypatch):
    # scripted uniform blocks force equal times across providers and, through
    # a gap below half an ulp of t, within provider 0; the merge must order
    # them exactly as a stable sort of all arrivals by (time, provider id)
    # would.  1 - 2**-53, the largest uniform, gives a gap of 2**-53, below
    # half an ulp of t ~ 3, and 1e-300 a gap of 690, past the horizon
    first, tiny, second, last = math.exp(-3.0), 1.0 - 2.0**-53, math.exp(-1.0), 1e-300
    script = {
        0: [first, 0.1, tiny, 0.2, second, 0.3, last],  # times t1, t1, t2
        1: [first, 0.4, second, 0.5, last],  # times t1, t2
    }
    monkeypatch.setattr(traffic, "provider_rng",
                        lambda seed, provider_id: ScriptedRng(script[provider_id]))
    spec = TrafficSpec(arrival_rates=(1.0, 1.0), mean_holding_time=1.0, horizon=100.0, seed=0)
    events = list(iter(build_event_stream(spec)))
    t1 = -float(np.log(first))
    t2 = t1 - float(np.log(second))
    assert t1 - float(np.log(tiny)) == t1 < t2 < 100.0
    holding = {u: -float(np.log(u)) for u in (0.1, 0.2, 0.3, 0.4, 0.5)}
    assert events == [
        (t1, 0, holding[0.1]), (t1, 0, holding[0.2]), (t1, 1, holding[0.4]),
        (t2, 0, holding[0.3]), (t2, 1, holding[0.5]),
    ]
    assert events == scalar_stream(spec)


def test_stream_repeats_itself_and_counts_its_arrivals():
    spec = TrafficSpec(arrival_rates=(0.8, 0.0, 0.3), mean_holding_time=3.0, horizon=500.0,
                       seed=77)
    stream = build_event_stream(spec)
    events = list(iter(stream))
    assert list(iter(stream)) == events
    assert len(stream) == len(events) > 0
    assert {provider_id for _, provider_id, _ in events} == {0, 2}


# the arrival rates of the four benchmark workloads (fixed_erlang, sbac_wide,
# phys_reuse and a sweep_runner point) at 10 s holding, on short horizons
BENCHMARK_SHAPES = {
    "fixed_erlang": ((0.5,), 400.0),
    "sbac_wide": ((12.0, 4.0) * 5, 5.0),
    "phys_reuse": ((0.8,) * 8, 40.0),
    "sweep_runner": ((1.6, 1.6), 100.0),
}


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_block_draws_equal_the_scalar_draws(shape):
    rates, horizon = BENCHMARK_SHAPES[shape]
    for seed in range(32):
        spec = TrafficSpec(arrival_rates=rates, mean_holding_time=10.0, horizon=horizon, seed=seed)
        events = list(iter(build_event_stream(spec)))
        assert len(events) > 100
        assert events == scalar_stream(spec)


@pytest.mark.parametrize("block", [2, 3, 5, 8, 32])
def test_odd_leftovers_carry_into_the_next_block(block, monkeypatch):
    # with an odd block every other block ends on half a (gap, holding) pair;
    # with zeros dropped an even one can too
    monkeypatch.setattr(traffic, "BLOCK", block)
    for seed in range(32):
        spec = TrafficSpec(arrival_rates=(1.6, 0.4, 0.8), mean_holding_time=10.0,
                           horizon=30.0, seed=seed)
        assert list(iter(build_event_stream(spec))) == scalar_stream(spec)


@pytest.mark.parametrize("zeros", [
    [0],  # the first uniform of the first block
    [15],  # the last of a block
    [16],  # the first of the second block
    [5, 6, 7],  # consecutive, inside a block
    [14, 15, 16, 17],  # consecutive, across a block boundary
    list(range(16, 32)),  # a whole block
    [0, 15, 16, 31, 33],  # both ends of the first two blocks, and in the third
])
def test_exact_zeros_are_dropped_like_the_scalar_redraw(zeros, monkeypatch):
    uniforms = np.random.default_rng(8).random(200)
    uniforms[zeros] = 0.0
    monkeypatch.setattr(traffic, "BLOCK", 16)  # the block the positions above assume
    monkeypatch.setattr(traffic, "provider_rng",
                        lambda seed, provider_id: ScriptedRng(uniforms.tolist()))
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=2.0, horizon=40.0, seed=0)
    events = list(iter(build_event_stream(spec)))
    assert len(events) > 20
    assert events == scalar_stream(spec)
    assert all(holding > 0.0 and math.isfinite(holding) for _, _, holding in events)


def stream_digest(spec):
    """The SHA-256 of the repr of every arrival, one a line, and their count."""
    digest, count = hashlib.sha256(), 0
    for event in build_event_stream(spec):
        digest.update(f"{event!r}\n".encode())
        count += 1
    return count, digest.hexdigest()


def test_the_arrival_stream_keeps_its_pinned_digest():
    # recorded with 16-value blocks; the uniform sequence and every log are
    # the same at any block size, so the stream keeps its bytes
    spec = TrafficSpec(arrival_rates=(1.6, 0.4, 0.0, 0.8, 2.5), mean_holding_time=10.0,
                       horizon=300.0, seed=2012)
    assert stream_digest(spec) == (
        1622, "65b60433744583f4121ed96428f4aaa2a5a03460763d4fbc2b8be015a62c3777"
    )


def test_an_exact_zero_inside_a_block_is_dropped_and_the_stream_goes_on(monkeypatch):
    # zeros at uniforms 7 and 40, inside the first and second blocks;
    # recorded with 16-value blocks, where they sat inside the first and third
    uniforms = np.random.default_rng(25).random(300)
    uniforms[[7, 40]] = 0.0
    monkeypatch.setattr(traffic, "provider_rng",
                        lambda seed, provider_id: ScriptedRng(uniforms.tolist()))
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=2.0, horizon=60.0, seed=0)
    assert stream_digest(spec) == (
        51, "e5a5abc0ea4a083592cc3b216355f4ac5c782a2ecf81b659aefcb4d4c05b7689"
    )
    assert list(iter(build_event_stream(spec))) == scalar_stream(spec)
