"""Metric definitions, exact unit examples and the Erlang-B oracle."""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest

from dsasim import TraceError, erlang_b
from dsasim.metrics import (
    mean_primary_interference,
    propagation_delay,
    rtt,
    spectral_efficiency,
    throughput,
)


@dataclass
class FakeRecord:
    arrival_time: float
    end_time: float
    admitted: bool = True


# -- propagation delay ---------------------------------------------------------


@pytest.mark.parametrize(
    "distance,speed,expected",
    [(3e8, 3e8, 1.0), (0.0, 3e8, 0.0), (1500.0, 2e8, 7.5e-6)],
)
def test_propagation_delay(distance, speed, expected):
    assert propagation_delay(distance, speed) == pytest.approx(expected, rel=1e-15)


def test_propagation_delay_rejects_bad_inputs():
    with pytest.raises(ValueError):
        propagation_delay(1.0, 0.0)
    with pytest.raises(ValueError):
        propagation_delay(-1.0, 1.0)


# -- RTT -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "distance,speed,expected",
    [(3e8, 3e8, 2.0), (0.0, 3e8, 0.0), (300.0, 3e8, 2e-6)],
)
def test_rtt(distance, speed, expected):
    assert rtt(distance, speed) == pytest.approx(expected, rel=1e-12)


# -- throughput -------------------------------------------------------------------


def test_throughput_single_full_span_session():
    records = [FakeRecord(arrival_time=0.0, end_time=100.0)]
    assert throughput(records, rate=1e5, horizon=100.0) == pytest.approx(1e5)


def test_throughput_no_admissions():
    records = [FakeRecord(arrival_time=0.0, end_time=0.0, admitted=False)]
    assert throughput(records, rate=1e5, horizon=100.0) == 0.0


def test_throughput_two_half_horizon_sessions():
    records = [
        FakeRecord(arrival_time=0.0, end_time=50.0),
        FakeRecord(arrival_time=50.0, end_time=100.0),
    ]
    assert throughput(records, rate=2e5, horizon=100.0) == pytest.approx(2e5)


def test_throughput_clamps_sessions_running_past_horizon():
    records = [FakeRecord(arrival_time=90.0, end_time=150.0)]
    # only 10 of the 60 active seconds fall inside the horizon
    assert throughput(records, rate=1e5, horizon=100.0) == pytest.approx(1e5 * 10.0 / 100.0)


def test_throughput_is_permutation_invariant():
    rng = random.Random(2)
    records = [
        FakeRecord(arrival_time=rng.uniform(0, 50), end_time=rng.uniform(50, 100),
                   admitted=rng.random() < 0.8)
        for _ in range(30)
    ]
    base = throughput(records, 1e5, 100.0)
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert throughput(shuffled, 1e5, 100.0) == pytest.approx(base, rel=1e-12)


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


# -- spectral efficiency -------------------------------------------------------------


def test_spectral_efficiency_half_busy():
    # 5 of 10 channels busy for the entire horizon
    assert spectral_efficiency(5.0 * 100.0, total_channels=10, horizon=100.0) == 0.5


def test_spectral_efficiency_idle():
    assert spectral_efficiency(0.0, total_channels=10, horizon=100.0) == 0.0


def test_spectral_efficiency_one_of_four_half_time():
    assert spectral_efficiency(50.0, total_channels=4, horizon=100.0) == pytest.approx(0.125)


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


def test_erlang_b_rejects_bad_arguments():
    with pytest.raises(ValueError):
        erlang_b(0, 1.0)
    with pytest.raises(ValueError):
        erlang_b(5, -1.0)
