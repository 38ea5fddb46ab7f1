"""Poisson workload generation: statistics, determinism, independence."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dsasim import TrafficSpec, build_event_stream
from dsasim import traffic
from dsasim.traffic import draw_exponential, provider_rng


def test_zero_rate_gives_empty_stream():
    spec = TrafficSpec(arrival_rates=(0.0, 0.0), mean_holding_time=1.0, horizon=100.0, seed=1)
    assert list(build_event_stream(spec)) == []


def test_arrival_count_and_mean_gap_match_rate():
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=5.0, horizon=1e5, seed=42)
    events = list(build_event_stream(spec))
    assert abs(len(events) - 1e5) < 3 * math.sqrt(1e5)
    gaps = np.diff([0.0] + [e.time for e in events])
    assert gaps.mean() == pytest.approx(1.0, rel=0.01)


def test_same_seed_gives_identical_stream():
    spec = TrafficSpec(arrival_rates=(0.8, 0.2), mean_holding_time=3.0, horizon=500.0, seed=77)
    assert list(build_event_stream(spec)) == list(build_event_stream(spec))


def test_different_seed_gives_different_stream():
    a = TrafficSpec(arrival_rates=(0.8,), mean_holding_time=3.0, horizon=500.0, seed=1)
    b = TrafficSpec(arrival_rates=(0.8,), mean_holding_time=3.0, horizon=500.0, seed=2)
    assert list(build_event_stream(a)) != list(build_event_stream(b))


def test_holding_time_sample_mean():
    rng = provider_rng(999, 0)
    draws = np.array([draw_exponential(rng, 100.0) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(100.0, rel=0.01)


def test_holding_times_strictly_positive():
    rng = provider_rng(3, 0)
    assert all(draw_exponential(rng, 0.5) > 0.0 for _ in range(10_000))


def test_draws_scale_linearly_with_mean():
    # inverse-CDF sampling: matched generator states give proportional draws
    rng_a, rng_b = provider_rng(5, 0), provider_rng(5, 0)
    for _ in range(200):
        a = draw_exponential(rng_a, 10.0)
        b = draw_exponential(rng_b, 30.0)
        assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_superposition_of_two_streams():
    spec = TrafficSpec(arrival_rates=(0.7, 0.3), mean_holding_time=5.0, horizon=1e5, seed=7)
    events = build_event_stream(spec)
    empirical_rate = len(events) / 1e5
    assert abs(empirical_rate - 1.0) < 3 * math.sqrt(1e5) / 1e5


def test_stream_is_strictly_time_ordered():
    spec = TrafficSpec(arrival_rates=(2.0, 2.0, 2.0), mean_holding_time=1.0, horizon=2000.0, seed=13)
    events = build_event_stream(spec)
    times = [e.time for e in events]
    assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))
    assert all(0.0 <= t < 2000.0 for t in times)


def test_adding_a_provider_does_not_perturb_others():
    base = TrafficSpec(arrival_rates=(0.5,), mean_holding_time=5.0, horizon=1000.0, seed=11)
    extended = TrafficSpec(
        arrival_rates=(0.5, 2.0), mean_holding_time=5.0, horizon=1000.0, seed=11
    )
    only = list(build_event_stream(base))
    mixed = [e for e in build_event_stream(extended) if e.provider_id == 0]
    assert only == mixed


def test_events_carry_common_requested_rate_and_holding():
    # the common rate lives on the spec alone and changes no draw
    spec = TrafficSpec(
        arrival_rates=(1.0,), mean_holding_time=2.0, horizon=100.0, seed=4,
        requested_rate=2.5e5,
    )
    events = list(build_event_stream(spec))
    assert events
    assert events == list(build_event_stream(dataclasses.replace(spec, requested_rate=1e5)))
    assert all(e.holding_time > 0 for e in events)


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
    # scripted draws force equal times across providers and, through a gap
    # below half an ulp of t, within provider 0; the merge must order them
    # exactly as a stable sort of all arrivals by (time, provider id) would
    script = {
        0: iter([1.0, 0.1, 1e-20, 0.2, 1.0, 0.3, 9.0]),  # times 1.0, 1.0, 2.0
        1: iter([1.0, 0.4, 1.0, 0.5, 9.0]),  # times 1.0, 2.0
    }
    monkeypatch.setattr(traffic, "provider_rng", lambda seed, provider_id: provider_id)
    monkeypatch.setattr(traffic, "draw_exponential", lambda rng, mean: next(script[rng]))
    spec = TrafficSpec(arrival_rates=(1.0, 1.0), mean_holding_time=1.0, horizon=5.0, seed=0)
    events = [(e.time, e.provider_id, e.holding_time) for e in build_event_stream(spec)]
    assert events == [(1.0, 0, 0.1), (1.0, 0, 0.2), (1.0, 1, 0.4), (2.0, 0, 0.3), (2.0, 1, 0.5)]


def test_stream_repeats_itself_and_counts_its_arrivals():
    spec = TrafficSpec(arrival_rates=(0.8, 0.0, 0.3), mean_holding_time=3.0, horizon=500.0,
                       seed=77)
    stream = build_event_stream(spec)
    events = list(stream)
    assert list(stream) == events
    assert len(stream) == len(events) > 0
    assert {e.provider_id for e in events} == {0, 2}
