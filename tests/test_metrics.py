"""Metric definitions on the reports of scripted runs, the interference
trace oracle and the Erlang-B oracle."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from dsasim import (
    InvalidTopologyError,
    QosConfig,
    Strategy,
    TrafficSpec,
    erlang_b,
    run_simulation,
)
from dsasim import engine

from conftest import explicit_gain_topology, make_link, make_provider, make_topology
from oracles import TraceError, mean_primary_interference


def scripted_report(monkeypatch, arrivals, horizon=100.0, rate=1e5, channels=10,
                    distance=200.0, speed=3e8, physical=False, **link_kwargs):
    """The report of a fixed-allocation run on one provider and one link
    whose arrivals are the given ``(time, holding_time)`` pairs."""
    link = make_link(0, tx=(0.0, 0.0), rx=(distance, 0.0), rate=rate, **link_kwargs)
    topology = explicit_gain_topology(
        [[1.0]], [link], providers=(make_provider(0, channels=channels),), speed=speed
    )
    spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=1.0, horizon=horizon, seed=0,
                       requested_rate=rate)
    monkeypatch.setattr(
        engine, "build_event_stream", lambda _: [(t, 0, holding) for t, holding in arrivals]
    )
    qos_config = QosConfig(physical_checks=physical)
    records, report = run_simulation(
        topology, spec, Strategy.FIXED, qos_config=qos_config, keep_records=True
    )
    assert len(records) == report.arrivals == len(arrivals)
    return report


# -- propagation delay: link length over propagation speed ------------------------


@pytest.mark.parametrize(
    "distance,speed,expected",
    [(3e8, 3e8, 1.0), (0.0, 3e8, 0.0), (1500.0, 2e8, 7.5e-6)],
)
def test_propagation_delay(distance, speed, expected, monkeypatch):
    report = scripted_report(monkeypatch, [(0.0, 1.0)], distance=distance, speed=speed)
    assert report.mean_propagation_delay == pytest.approx(expected, rel=1e-15)


def test_propagation_delay_rejects_bad_inputs():
    # topology validation rejects a speed <= 0 before any event; a link's
    # length is a Euclidean distance, never negative
    link = make_link(0)
    for speed in (0.0, -3e8):
        topology = explicit_gain_topology([[1.0]], [link], speed=speed)
        spec = TrafficSpec(arrival_rates=(1.0,), mean_holding_time=1.0, horizon=10.0, seed=0)
        with pytest.raises(InvalidTopologyError, match="propagation_speed must be > 0"):
            run_simulation(topology, spec, Strategy.FIXED)


# -- RTT: twice the propagation delay ------------------------------------------------


@pytest.mark.parametrize(
    "distance,speed,expected",
    [(3e8, 3e8, 2.0), (0.0, 3e8, 0.0), (300.0, 3e8, 2e-6)],
)
def test_rtt(distance, speed, expected, monkeypatch):
    report = scripted_report(monkeypatch, [(0.0, 1.0)], distance=distance, speed=speed)
    assert report.mean_rtt == pytest.approx(expected, rel=1e-12)


# -- throughput: requested rate x active time within the horizon, over it ----------


def test_throughput_single_full_span_session(monkeypatch):
    report = scripted_report(monkeypatch, [(0.0, 100.0)], rate=1e5)
    assert report.throughput == pytest.approx(1e5)


def test_throughput_no_admissions(monkeypatch):
    # every call misses its SINR target at the power cap: nothing is delivered
    report = scripted_report(
        monkeypatch, [(0.0, 100.0), (10.0, 5.0)], physical=True, sinr_target=1e12
    )
    assert report.blocked_qos == 2
    assert report.throughput == 0.0


def test_throughput_two_half_horizon_sessions(monkeypatch):
    report = scripted_report(monkeypatch, [(0.0, 50.0), (50.0, 50.0)], rate=2e5)
    assert report.throughput == pytest.approx(2e5)


def test_throughput_clamps_sessions_running_past_horizon(monkeypatch):
    # only 10 of the 60 active seconds fall inside the horizon
    report = scripted_report(monkeypatch, [(90.0, 60.0)], rate=1e5)
    assert report.throughput == pytest.approx(1e5 * 10.0 / 100.0)


def test_throughput_is_permutation_invariant(monkeypatch):
    # the report sums in record order; any order of the same sessions agrees
    rng = random.Random(2)
    arrivals = sorted((rng.uniform(0, 50), rng.uniform(1, 60)) for _ in range(30))
    report = scripted_report(monkeypatch, arrivals, channels=30, rate=1e5)
    active = [min(t + holding, 100.0) - t for t, holding in arrivals]
    rng.shuffle(active)
    assert report.throughput == pytest.approx(1e5 * sum(active) / 100.0, rel=1e-12)


# -- interference ------------------------------------------------------------------


def test_interference_idle_system():
    trace = [(0.0, 100.0, np.zeros(2))]
    assert mean_primary_interference(trace, 100.0) == 0.0


def test_interference_constant_load():
    trace = [(0.0, 40.0, np.array([3.0])), (40.0, 100.0, np.array([3.0]))]
    assert mean_primary_interference(trace, 100.0) == pytest.approx(3.0)


def test_interference_half_horizon_load():
    trace = [(0.0, 50.0, np.array([2.0])), (50.0, 100.0, np.array([0.0]))]
    assert mean_primary_interference(trace, 100.0) == pytest.approx(1.0)


def test_interference_averages_across_points():
    trace = [(0.0, 100.0, np.array([2.0, 0.0]))]
    assert mean_primary_interference(trace, 100.0) == pytest.approx(1.0)


def test_interference_rejects_gap():
    trace = [(0.0, 40.0, np.array([1.0])), (50.0, 100.0, np.array([1.0]))]
    with pytest.raises(TraceError):
        mean_primary_interference(trace, 100.0)


def test_interference_rejects_overlap_and_short_trace():
    with pytest.raises(TraceError):
        mean_primary_interference(
            [(0.0, 60.0, np.array([1.0])), (50.0, 100.0, np.array([1.0]))], 100.0
        )
    with pytest.raises(TraceError):
        mean_primary_interference([(0.0, 60.0, np.array([1.0]))], 100.0)


# -- spectral efficiency: time-averaged busy channels over all channels -------------


def test_spectral_efficiency_half_busy(monkeypatch):
    # 5 of 10 channels busy for the entire horizon
    report = scripted_report(monkeypatch, [(0.0, 100.0)] * 5, channels=10)
    assert report.spectral_efficiency == 0.5


def test_spectral_efficiency_idle(monkeypatch):
    assert scripted_report(monkeypatch, [], channels=10).spectral_efficiency == 0.0


def test_spectral_efficiency_one_of_four_half_time(monkeypatch):
    report = scripted_report(monkeypatch, [(0.0, 50.0)], channels=4)
    assert report.spectral_efficiency == pytest.approx(0.125)


# -- Erlang-B ----------------------------------------------------------------------------


def test_erlang_b_single_channel_closed_form():
    assert erlang_b(1, 1.0) == pytest.approx(0.5)
    for load in (0.1, 2.0, 7.0):
        assert erlang_b(1, load) == pytest.approx(load / (1.0 + load), rel=1e-12)


def test_erlang_b_zero_load():
    for channels in (1, 5, 40):
        assert erlang_b(channels, 0.0) == 0.0


def test_erlang_b_reference_value():
    assert erlang_b(10, 5.0) == pytest.approx(0.018385, abs=5e-7)


def test_erlang_b_monotone_in_load_and_channels():
    loads = np.linspace(0.5, 20.0, 15)
    blocks = [erlang_b(10, float(a)) for a in loads]
    assert all(b1 < b2 for b1, b2 in zip(blocks, blocks[1:]))
    channels = range(1, 15)
    blocks_k = [erlang_b(k, 5.0) for k in channels]
    assert all(b1 > b2 for b1, b2 in zip(blocks_k, blocks_k[1:]))


def test_pooled_and_fixed_blocking_match_erlang_b():
    # without physical checks DYNAMIC_SBAC pools every channel: an M/M/PK/PK
    # loss system, here B(10, 6).  FIXED is one M/M/K/K system per provider,
    # so its blocking is the arrival-weighted B(5, a_p).  Per-seed sd over 16
    # seeds of 2e4 s: 0.0036 pooled, 0.0056 fixed; each bound is about 4
    # standard errors of the 8-seed mean
    topology = make_topology(num_providers=2, channels=5, num_links=2, with_primary=False)
    rates, holding = (0.45, 0.15), 10.0
    fixed_oracle = sum(r * erlang_b(5, r * holding) for r in rates) / sum(rates)
    oracles = {Strategy.DYNAMIC_SBAC: (erlang_b(10, 6.0), 0.005),
               Strategy.FIXED: (fixed_oracle, 0.008)}
    for strategy, (oracle, bound) in oracles.items():
        blocking = [
            run_simulation(
                topology,
                TrafficSpec(arrival_rates=rates, mean_holding_time=holding, horizon=2e4,
                            seed=seed),
                strategy,
            )[1].blocking_probability
            for seed in range(8)
        ]
        assert abs(np.mean(blocking) - oracle) < bound, (strategy, np.mean(blocking), oracle)


def test_erlang_b_rejects_bad_arguments():
    with pytest.raises(ValueError):
        erlang_b(0, 1.0)
    for load in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="offered_load"):
            erlang_b(5, load)
