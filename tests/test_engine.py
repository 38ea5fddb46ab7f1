"""Event loop, admission outcomes, held sessions and the clock, run invariants."""
from __future__ import annotations

import builtins
import dataclasses
import gc
import heapq
import math
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsasim import (
    NetworkTopology,
    Outcome,
    PrimaryReceivingPoint,
    QosConfig,
    SbacConfig,
    ServiceProvider,
    SpectrumChannel,
    StateError,
    Strategy,
    TrafficSpec,
    gains_from_positions,
    link_arrays,
    run_simulation,
)
from dsasim import engine, qos, sbac, traffic
from dsasim.engine import SessionRecord, Simulation
from dsasim.sbac import LivePool
from dsasim.qos import QOS_MARGIN

from conftest import (
    explicit_gain_topology, held_record, make_link, make_provider, make_topology,
)
from oracles import loop_admission, loss_counts, mean_primary_interference, solve_min_powers


REUSE = QosConfig(physical_checks=True, channel_reuse=True)


def spec_for(rates, holding=1.0, horizon=200.0, seed=0, rate=1e5):
    return TrafficSpec(
        arrival_rates=tuple(rates),
        mean_holding_time=holding,
        horizon=horizon,
        seed=seed,
        requested_rate=rate,
    )


# -- empty and saturated workloads ----------------------------------------------


def test_zero_rate_run_is_empty(simple_topology):
    records, report = run_simulation(
        simple_topology, spec_for([0.0]), Strategy.FIXED, keep_records=True
    )
    assert records == []
    assert report.spectral_efficiency == 0.0
    assert report.blocking_probability == 0.0
    assert report.throughput == 0.0


def test_single_channel_overlapping_arrivals_block():
    topology = make_topology(num_providers=1, channels=1)
    # holding far beyond the horizon: every arrival after the first overlaps
    spec = spec_for([5.0], holding=1e7, horizon=2.0, seed=3)
    records, report = run_simulation(topology, spec, Strategy.FIXED, keep_records=True)
    assert report.arrivals >= 2
    assert records[0].outcome is Outcome.ADMITTED
    assert all(r.outcome is Outcome.BLOCKED_NO_CHANNEL for r in records[1:])


def test_invalid_topology_aborts_before_processing(simple_topology):
    # the bad link fails where it is built, so no topology and no run has it
    with pytest.raises(ValueError, match=r"^rate_min, rate and rate_max must satisfy"):
        dataclasses.replace(simple_topology.links[0], rate_min=9e5)


def test_traffic_provider_count_must_match(simple_topology):
    with pytest.raises(ValueError, match=r"^traffic_spec covers 2 providers, topology has 1$"):
        run_simulation(simple_topology, spec_for([1.0, 1.0]), Strategy.FIXED)


@pytest.mark.parametrize("strategy", ["FIXED", "DYNAMIC_SBAC", None])
def test_a_strategy_that_is_not_a_strategy_fails_before_any_event(simple_topology, strategy):
    # a string used to run the whole stream as dynamic selection and then
    # fail in the report
    with pytest.raises(ValueError, match=rf"^strategy must be a Strategy, got {strategy!r}$"):
        run_simulation(simple_topology, spec_for([1.0]), strategy)


@pytest.mark.parametrize("strategy", [Strategy.FIXED, Strategy.DYNAMIC_SBAC])
@pytest.mark.parametrize("name, value, kind", [
    ("sbac_config", {"beta1": 1}, "an SbacConfig or None"),
    ("sbac_config", QosConfig(), "an SbacConfig or None"),
    ("qos_config", True, "a QosConfig or None"),
    ("qos_config", SbacConfig(), "a QosConfig or None"),
])
def test_a_config_of_another_type_fails_before_any_event(simple_topology, strategy, name, value,
                                                          kind):
    # a dict used to run FIXED silently and fail DYNAMIC_SBAC on an
    # attribute, and a bool failed on an attribute too
    with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {re.escape(repr(value))}$"):
        run_simulation(simple_topology, spec_for([1.0]), strategy, **{name: value})


# -- admission outcomes ------------------------------------------------------------


def physical_link(link_id=0, sinr_target=2.0, noise=0.1, power_max=1.0, y=0.0):
    # processing gain 1 so minimal power is sinr_target * noise / gain
    return make_link(
        link_id, tx=(0.0, y), rx=(10.0, y), bandwidth=1e5, rate=1e5,
        noise=noise, sinr_target=sinr_target, power_max=power_max,
    )


def test_admission_on_free_channel_without_checks(simple_topology):
    spec = spec_for([0.2], holding=1.0, horizon=50.0, seed=1)
    records, report = run_simulation(
        simple_topology, spec, Strategy.DYNAMIC_SBAC, keep_records=True
    )
    assert report.arrivals > 0
    assert report.admitted == report.arrivals
    assert all(r.channel_id is not None and r.provider_id is not None for r in records)
    # without physical checks, sessions transmit at the configured link power
    assert all(r.power == simple_topology.links[r.link_id].power for r in records)


def test_blocked_qos_when_minimal_power_exceeds_cap():
    # required power 2.0 * 0.1 / 1.0 = 0.2 W exceeds the 0.15 W cap
    link = physical_link(power_max=0.15)
    topology = explicit_gain_topology([[1.0]], [link], providers=(make_provider(0, 2),))
    spec = spec_for([0.5], holding=1.0, horizon=20.0, seed=2)
    _, report = run_simulation(
        topology, spec, Strategy.FIXED, qos_config=QosConfig(physical_checks=True)
    )
    assert report.arrivals > 0
    assert report.blocked_qos == report.arrivals
    assert report.admitted == 0


def test_blocked_interference_when_primary_budget_exhausted():
    # feasible power 0.2 W, but the primary point only tolerates 0.1 W
    link = physical_link()
    point = PrimaryReceivingPoint(id=0, position=(5.0, 5.0), tolerance=0.1)
    topology = explicit_gain_topology(
        [[1.0]], [link], g_ps=[[1.0]], points=(point,), providers=(make_provider(0, 2),)
    )
    spec = spec_for([0.5], holding=1.0, horizon=20.0, seed=2)
    _, report = run_simulation(
        topology, spec, Strategy.FIXED, qos_config=QosConfig(physical_checks=True)
    )
    assert report.arrivals > 0
    assert report.blocked_interference == report.arrivals


def test_reuse_mode_blocks_infeasible_co_channel_pair():
    # two providers with one channel each; equal channel index is co-channel
    # under reuse, and the pair (gamma=3, cross gain 0.5) is QoS-infeasible
    links = (physical_link(0, sinr_target=3.0, y=0.0), physical_link(1, sinr_target=3.0, y=20.0))
    providers = (make_provider(0, channels=1), make_provider(1, channels=1, base_mhz=450.0))
    topology = explicit_gain_topology(
        [[1.0, 0.5], [0.5, 1.0]], links, providers=providers
    )
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)
    spec = spec_for([2.0, 2.0], holding=1e4, horizon=5.0, seed=4)
    _, report = run_simulation(
        topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True
    )
    assert report.admitted == 1  # the first call takes one band
    assert report.blocked_qos >= 1  # a co-channel partner is infeasible
    # without reuse the same workload fills both bands
    _, report2 = run_simulation(
        topology, spec, Strategy.DYNAMIC_SBAC,
        qos_config=QosConfig(physical_checks=True, channel_reuse=False),
    )
    assert report2.admitted == 2


def test_reuse_mode_admits_feasible_co_channel_pair_with_power_raise():
    links = (physical_link(0, sinr_target=1.0, y=0.0), physical_link(1, sinr_target=1.0, y=20.0))
    providers = (make_provider(0, channels=1), make_provider(1, channels=1, base_mhz=450.0))
    topology = explicit_gain_topology([[1.0, 0.5], [0.5, 1.0]], links, providers=providers)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)
    spec = spec_for([2.0, 2.0], holding=1e4, horizon=5.0, seed=4)
    records, report = run_simulation(
        topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True,
        keep_records=True,
    )
    admitted = [r for r in records if r.admitted]
    assert len(admitted) == 2
    # both ended up on the shared minimal-power solution P = (0.2, 0.2)
    assert admitted[0].power == pytest.approx(0.2, abs=1e-8)
    assert admitted[1].power == pytest.approx(0.2, abs=1e-8)


def test_processing_gain_is_bandwidth_over_requested_rate():
    # the link's own rate (2e5) is not the session rate (1e5): the gain is
    # 1e6 / 1e5 = 10, so the minimal power is 0.78125 mW, under the 1 mW cap
    # (a gain of 1e6 / 2e5 = 5 would need 1.5625 mW and block every call)
    gain = 250.0 ** -3
    link = make_link(0, rate=2e5, power=1e-3, power_max=1e-3)
    topology = explicit_gain_topology([[gain]], [link])
    spec = spec_for([0.5], holding=10.0, horizon=200.0, seed=1, rate=1e5)
    records, report = run_simulation(
        topology, spec, Strategy.FIXED, qos_config=QosConfig(physical_checks=True), audit=True,
        keep_records=True,
    )
    expected = 5.0 * 1e-10 * (1.0 + QOS_MARGIN) / (10.0 * gain)
    admitted = [r for r in records if r.admitted]
    assert report.admitted == len(admitted) >= 1
    assert report.blocked_qos == 0
    assert all(r.power == pytest.approx(expected, rel=1e-12) for r in admitted)


def test_fixed_strategy_serves_home_provider_only():
    topology = make_topology(num_providers=3, channels=4)
    spec = spec_for([0.5, 0.5, 0.5], holding=2.0, horizon=100.0, seed=9)
    records, _ = run_simulation(topology, spec, Strategy.FIXED, keep_records=True)
    for record in records:
        if record.admitted:
            assert record.provider_id == record.home_provider_id


def test_dynamic_strategy_offloads_to_other_providers():
    topology = make_topology(num_providers=2, channels=4)
    spec = spec_for([3.0, 0.0], holding=2.0, horizon=100.0, seed=9)
    records, _ = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, keep_records=True)
    providers_used = {r.provider_id for r in records if r.admitted}
    assert 1 in providers_used  # overflow traffic lands on the idle provider


# -- held sessions and the run clock -------------------------------------------------


class Keeping(Simulation):
    """Keeps the departure heap that the audits see, the run's own list, as
    ``heap``: once the run ends it holds the sessions held at the horizon."""

    heap = None

    def _audit_state(self, departures, busy):
        self.heap = departures
        super()._audit_state(departures, busy)


def alive_at(records, horizon):
    """The admitted records that end past the horizon, in arrival order."""
    return [r for r in records if r.admitted and r.end_time > horizon]


def test_occupancy_release_restores_prior_state():
    # the run departs every session that ends by the horizon and stops
    # there: the sessions held at the end are exactly the admitted ones that
    # end past it, in the heap and in their pools, and the audit passes
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    sim = Keeping(topology, spec, Strategy.DYNAMIC_SBAC, audit=True, keep_records=True)
    records, report = sim.run()
    assert report.blocked_no_channel > 0  # the channels did fill up
    alive = alive_at(records, spec.horizon)
    assert alive and sim.busy == len(alive) == len(sim.heap)
    assert sorted(entry[:5] for entry in sim.heap) == sorted(
        (r.end_time, r.session_id, r.provider_id, r.channel_id, r.link_id) for r in alive)
    for pool in sim._pools:
        held = [r.channel_id for r in alive if r.provider_id == pool.provider_id]
        assert pool.free_count == pool.total_channels - len(held)
        pool.audit(held)
    assert not sim.groups  # only channel reuse keeps co-channel groups
    sim._audit_state(sim.heap, sim.busy)


def test_occupancy_integral_counts_exact_busy_time():
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    sim = Simulation(topology, spec, Strategy.DYNAMIC_SBAC, keep_records=True)
    records, report = sim.run()
    held = sum(min(r.end_time, spec.horizon) - r.arrival_time for r in records if r.admitted)
    assert sim.busy_integral == pytest.approx(held, rel=1e-12)
    assert report.spectral_efficiency == sim.busy_integral / spec.horizon / 6


def test_occupancy_integral_clamps_to_horizon():
    # one channel held from the first arrival far past the 2 s horizon
    topology = make_topology(num_providers=1, channels=1)
    spec = spec_for([5.0], holding=1e7, horizon=2.0, seed=3)
    sim = Simulation(topology, spec, Strategy.FIXED, audit=True, keep_records=True)
    records, report = sim.run()
    assert records[0].admitted and records[0].end_time > 1e5
    # the run stops at the horizon with the session still held
    assert sim.clock == spec.horizon and sim.busy == 1
    assert sim.busy_integral == pytest.approx(spec.horizon - records[0].arrival_time, rel=1e-12)
    assert report.spectral_efficiency <= 1.0


def run_events(events, monkeypatch, engine_class=Simulation, audit=False):
    """A FIXED run on one provider with two channels over a 10 s horizon,
    fed the given ``(time, provider_id, holding_time)`` arrivals."""
    monkeypatch.setattr(engine, "build_event_stream", lambda spec: events)
    sim = engine_class(make_topology(num_providers=1, channels=2), spec_for([1.0], horizon=10.0),
                       Strategy.FIXED, audit=audit)
    return sim, sim.run()[1]


@pytest.mark.parametrize("holding,clock,busy_integral", [
    (3.0, 10.0, 5.0),  # both sessions left by 7 s: the clock closes at the horizon
    (30.0, 10.0, 8.0),  # the last one is still held at the horizon, where the run stops
])
def test_the_clock_ends_at_the_horizon(holding, clock, busy_integral, monkeypatch):
    # busy over [1, 3] and [4, min(4 + holding, 10)], every bound exact
    sim, report = run_events([(1.0, 0, 2.0), (4.0, 0, holding)], monkeypatch)
    assert report.arrivals == report.admitted == 2
    assert (sim.clock, sim.busy_integral) == (clock, busy_integral)
    assert sim.busy == (4.0 + holding > 10.0)


def test_a_departure_at_the_horizon_is_processed(monkeypatch):
    # session 1 ends at exactly 10 s, the horizon: the closing event departs it
    sim, report = run_events([(1.0, 0, 2.0), (4.0, 0, 6.0)], monkeypatch, Keeping, audit=True)
    assert report.admitted == 2 and report.throughput == 8e5 / 10.0
    assert (sim.clock, sim.busy, sim.heap, sim.busy_integral) == (10.0, 0, [], 8.0)
    assert sim._free_ids == [[0, 1]]


@pytest.mark.parametrize("strategy", [Strategy.FIXED, Strategy.DYNAMIC_SBAC])
def test_a_pool_gives_back_only_the_sessions_that_end_by_the_horizon(strategy, monkeypatch):
    # a DYNAMIC_SBAC run's pools count their gives; a FIXED run's heaps of
    # free ids end without the channels of the sessions alive at the horizon
    given_back = []
    give = LivePool.give

    def counting(pool, channel_id):
        given_back.append((pool.provider_id, channel_id))
        give(pool, channel_id)

    monkeypatch.setattr(LivePool, "give", counting)
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    sim = Simulation(topology, spec, strategy, keep_records=True)
    records, _ = sim.run()
    ended = [r for r in records if r.admitted and r.end_time <= spec.horizon]
    alive = alive_at(records, spec.horizon)
    assert ended and alive  # some end past the horizon
    if strategy is Strategy.DYNAMIC_SBAC:
        assert sorted(given_back) == sorted((r.provider_id, r.channel_id) for r in ended)
        return
    assert given_back == []
    for provider, heap in zip(topology.providers, sim._free_ids):
        held = {r.channel_id for r in alive if r.provider_id == provider.id}
        assert sorted(heap) == [ch.id for ch in provider.channels if ch.id not in held]


def test_an_arrival_past_the_horizon_is_a_state_error(monkeypatch):
    # a replaced stream may run past the horizon, where no arrival can be
    # served: it fails when the run reaches the horizon, not with a
    # negative served time
    with pytest.raises(StateError, match=r"^an arrival at 12\.0 is past the horizon 10\.0$"):
        run_events([(1.0, 0, 2.0), (12.0, 0, 1.0)], monkeypatch)


@pytest.mark.parametrize("events", [
    [(1.0, 0, 1.0), (5.0, 0, 1.0)],  # rewound before the second arrival
    [(1.0, 0, 1.0)],  # rewound as the closing event at the horizon departs it
])
def test_a_departure_due_before_the_clock_is_a_state_error(events, monkeypatch):
    # the first departure, at 2 s, goes back in the heap due half a second earlier
    class Rewinding(Simulation):
        first = None

        def _audit_state(self, departures, busy):
            if self.first is None:
                self.first = departures[0]  # session 0, just admitted
            elif self.first not in departures:  # it departed
                end_time, *fields = self.first
                heapq.heappush(departures, (end_time - 0.5, *fields))

    with pytest.raises(StateError, match=r"clock moved backwards \(2.0 -> 1.5\)"):
        run_events(events, monkeypatch, Rewinding, audit=True)


def test_an_arrival_before_the_clock_is_a_state_error(monkeypatch):
    with pytest.raises(StateError, match=r"clock moved backwards \(2.0 -> 1.0\)"):
        run_events([(2.0, 0, 5.0), (1.0, 0, 5.0)], monkeypatch)


class Stop(Exception):
    pass


@pytest.mark.parametrize("stop_after", [0, 1, 25])
def test_run_draws_each_arrival_only_when_it_reaches_it(stop_after, monkeypatch):
    # the arrival stream is drawn lazily: a run stopped after k arrivals has
    # drawn the uniforms of a gap and a holding time for those k and for one
    # pending arrival per provider, plus at most one block more per provider,
    # not the horizon's ~2,000 arrivals
    drawn = []
    provider_rng = traffic.provider_rng

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            drawn.append(size)
            return self.rng.random(size)

    select_best_channel = sbac.select_best_channel
    selected = []

    def stopping(pools, scores):  # every arrival selects once, once drawn
        if len(selected) == stop_after:
            raise Stop
        selected.append(None)
        return select_best_channel(pools, scores)

    monkeypatch.setattr(traffic, "provider_rng", lambda *args: Counting(provider_rng(*args)))
    topology = make_topology(num_providers=3, channels=3)
    spec = spec_for([1.5, 0.5, 1.0], holding=2.0, horizon=700.0, seed=1)
    with monkeypatch.context() as patch:
        patch.setattr(sbac, "select_best_channel", stopping)
        with pytest.raises(Stop):
            Simulation(topology, spec, Strategy.DYNAMIC_SBAC).run()
    assert 0 < sum(drawn) <= 2 * (stop_after + 3) + 3 * traffic.BLOCK
    # the whole run: a gap and a holding time per arrival, plus the gap past
    # the horizon that ends each provider's stream, each drawn in whole blocks
    per_provider = [sum(1 for _ in traffic.provider_arrivals(spec, i)) for i in range(3)]
    drawn.clear()
    _, report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC)
    assert sum(per_provider) == report.arrivals > 2000
    assert sum(drawn) == sum(
        math.ceil((2 * count + 1) / traffic.BLOCK) * traffic.BLOCK for count in per_provider
    )
    assert set(drawn) == {traffic.BLOCK}


def run_with_engine(engine_class, audit=False, qos_config=None, strategy=Strategy.DYNAMIC_SBAC):
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    return engine_class(topology, spec, strategy, qos_config=qos_config, audit=audit).run()


def test_double_release_is_a_state_error():
    # the first session to depart goes back in the heap, due at once, after
    # the audit of the state it left
    class DepartingTwice(Simulation):
        held = ()
        done = False

        def _audit_state(self, departures, busy):
            super()._audit_state(departures, busy)
            departed = [entry for entry in self.held if entry not in departures]
            if departed and not self.done:
                self.done = True
                heapq.heappush(departures, departed[0])
            self.held = list(departures)

    for strategy, qos_config, message in [
        (Strategy.DYNAMIC_SBAC, None, r"channel \(\d, \d\) is already free"),  # the pool's guard
        (Strategy.DYNAMIC_SBAC, REUSE, "holds no channel"),  # the co-channel group's, first
        # a push onto a heap has no guard: the next audit finds the id twice
        (Strategy.FIXED, None, r"provider \d free-id heap \[.*\] differs"),
    ]:
        with pytest.raises(StateError, match=message):
            run_with_engine(DepartingTwice, audit=True, qos_config=qos_config, strategy=strategy)


def test_double_occupancy_is_a_state_error(monkeypatch):
    # a record equal to a held one but not it is not held: identity decides,
    # in the co-channel groups that a reuse run keeps.  The heap's entries
    # keep their fields and carry a copy of their record
    class DepartingACopy(Simulation):
        def _audit_state(self, departures, busy):
            departures[:] = [(*fields, dataclasses.replace(record))
                             for *fields, record in departures]

    with pytest.raises(StateError, match="holds no channel"):
        run_with_engine(DepartingACopy, audit=True, qos_config=REUSE)
    # nor may a second session be admitted onto a held channel
    monkeypatch.setattr(sbac, "select_best_channel", lambda pools, scores: (0, 0, 1.0))
    with pytest.raises(StateError, match=r"channel \(0, 0\) is already held"):
        run_with_engine(Simulation)


def test_audit_flags_a_record_held_under_another_slot():
    # a reuse run: its co-channel groups hold each record under its index
    class Relabelling(Simulation):
        def _physical_admission(self, channel_id, record):
            outcome = super()._physical_admission(channel_id, record)
            if outcome is Outcome.ADMITTED and record.session_id == 4:
                record.channel_id += 100
            return outcome

    with pytest.raises(StateError, match="session 4 is held on channel"):
        run_with_engine(Relabelling, audit=True, qos_config=REUSE)


def test_audit_flags_a_miscounted_busy_channel():
    class Miscounting(Simulation):
        def _audit_state(self, departures, busy):
            super()._audit_state(departures, busy + 1)

    run_with_engine(Simulation, audit=True)
    with pytest.raises(StateError, match="busy count"):
        run_with_engine(Miscounting, audit=True)


@pytest.mark.parametrize("fault", ["kept", "dropped"])
def test_audit_flags_a_departure_heap_out_of_step(fault):
    # the heap must hold one departure per held session: here the first
    # departure's entry goes back in, due never, after the session left,
    # or the next entry is dropped while its session is still held.  A
    # reuse run: its co-channel groups hold the sessions apart from the heap
    class Leaking(Simulation):
        held = ()
        done = False

        def _audit_state(self, departures, busy):
            departed = [entry for entry in self.held if entry not in departures]
            if departed and not self.done and (fault == "kept" or departures):
                self.done = True
                if fault == "kept":
                    heapq.heappush(departures, (math.inf, *departed[0][1:]))
                else:
                    heapq.heappop(departures)
            self.held = list(departures)
            super()._audit_state(departures, busy)

    with pytest.raises(StateError, match="departure heap holds"):
        run_with_engine(Leaking, audit=True, qos_config=REUSE)


@pytest.mark.parametrize("qos_config", [None, REUSE])
def test_a_run_goes_through_the_seams_a_tracer_wraps(qos_config, monkeypatch):
    # a tracer counts selections and streams by wrapping these two names
    # before a run, which looks each up once: the wrapped selection runs
    # once per arrival and the wrapped stream once per run.  Without
    # keep_records a record is built only for the physical stage, which
    # writes its power, so for each arrival that reaches that stage and
    # for none without it; only channel reuse keeps co-channel groups
    calls = {"select": 0, "stream": 0}
    built = []  # the outcome each record was built with
    select_best_channel, build_event_stream = sbac.select_best_channel, engine.build_event_stream

    def selecting(pools, scores):
        calls["select"] += 1
        return select_best_channel(pools, scores)

    def streaming(spec):
        calls["stream"] += 1
        return build_event_stream(spec)

    def building(*fields):
        built.append(fields[7])
        return SessionRecord(*fields)

    monkeypatch.setattr(sbac, "select_best_channel", selecting)
    monkeypatch.setattr(engine, "build_event_stream", streaming)
    monkeypatch.setattr(engine, "SessionRecord", building)
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    sim = Simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config)
    _, report = sim.run()
    assert calls == {"select": report.arrivals, "stream": 1}
    assert report.blocked_no_channel > 0
    if qos_config is None:
        assert built == []
    else:
        assert built == [Outcome.ADMITTED] * (report.arrivals - report.blocked_no_channel)
    assert bool(sim.groups) == (qos_config is REUSE)


@pytest.mark.parametrize("qos_config", [None, REUSE])
@pytest.mark.parametrize("field", range(5))
def test_audit_flags_a_departure_entry_that_differs_from_its_record(field, qos_config):
    # a held entry's end time, session id, provider, channel or link is
    # relabelled: its record, kept with keep_records and by the physical
    # stage, no longer agrees with it
    class Relabelling(Simulation):
        def _audit_state(self, departures, busy):
            if departures:
                entry = list(departures[-1])
                entry[field] += 1
                departures[-1] = tuple(entry)
            super()._audit_state(departures, busy)

    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    Simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True,
               keep_records=True).run()
    with pytest.raises(StateError, match="departure entry differs from its record"):
        Relabelling(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True,
                    keep_records=True).run()


# -- run invariants --------------------------------------------------------------------


@pytest.mark.parametrize("strategy", [Strategy.FIXED, Strategy.DYNAMIC_SBAC])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conservation_of_arrivals(strategy, seed):
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=300.0, seed=seed)
    records, report = run_simulation(topology, spec, strategy, audit=True, keep_records=True)
    assert report.arrivals == len(records)
    assert (
        report.arrivals
        == report.admitted
        + report.blocked_no_channel
        + report.blocked_qos
        + report.blocked_interference
    )
    assert 0.0 <= report.spectral_efficiency <= 1.0
    assert 0.0 <= report.blocking_probability <= 1.0


@given(
    providers=st.integers(1, 3),
    channels=st.integers(1, 4),
    links=st.integers(1, 6),
    strategy=st.sampled_from(Strategy),
    physical=st.booleans(),
    reuse=st.booleans(),
    tolerance=st.sampled_from([1e-3, 4e-11, 1e-11]),
    load=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_audited_runs_conserve_arrivals_and_repeat(
    providers, channels, links, strategy, physical, reuse, tolerance, load, seed
):
    # audit=True rebuilds the pools, the busy count, the departure heap, the
    # primary loads and every group's SINR from the held records after each
    # event; channel reuse is drawn only with physical checks, which it needs
    topology = make_topology(
        num_providers=providers, channels=channels, num_links=links, tolerance=tolerance
    )
    spec = spec_for([load * (1 + p) for p in range(providers)], holding=3.0, horizon=20.0,
                    seed=seed)
    qos_config = QosConfig(physical_checks=physical, channel_reuse=physical and reuse)
    sim = Simulation(topology, spec, strategy, qos_config=qos_config, audit=True,
                     keep_records=True)
    records, report = sim.run()
    assert report.arrivals == len(records) == (
        report.admitted + report.blocked_no_channel + report.blocked_qos
        + report.blocked_interference
    )
    # the run stops at the horizon: what is still held is what ends past it
    alive = alive_at(records, spec.horizon)
    assert sim.busy == len(alive) and sim.clock == spec.horizon
    channels = {r.channel_id for r in alive} if qos_config.channel_reuse else ()
    assert {channel_id: list(map(id, group)) for channel_id, group in sim.groups.items()
            if group} == {c: [id(r) for r in alive if r.channel_id == c] for c in channels}
    assert qos_config.channel_reuse or not sim.groups  # only reuse keeps groups
    assert 0.0 <= report.spectral_efficiency <= 1.0
    assert report.mean_rtt == 2 * report.mean_propagation_delay
    assert run_simulation(
        topology, spec, strategy, qos_config=qos_config, keep_records=True
    ) == (records, report)
    # the streamed report is the same without the records, which are None
    assert run_simulation(topology, spec, strategy, qos_config=qos_config, audit=True) == (
        None, report
    )


@given(
    providers=st.integers(1, 4),
    channels=st.integers(1, 6),
    links=st.integers(1, 6),
    rates=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    holding=st.floats(1.0, 20.0),
    physical=st.booleans(),
    reuse=st.booleans(),
    tolerance=st.sampled_from([1e-3, 4e-11]),
    weights=st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                             (0.3, 0.5, 0.2)]),
    session_minutes=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_loss_system_relations_hold_exactly(providers, channels, links, rates, holding,
                                            physical, reuse, tolerance, weights,
                                            session_minutes, seed):
    # three relations that hold to the bit, with no tolerance:
    # - without the physical stage, the counter-only loss system on the same
    #   stream gives each strategy's arrivals and channel blocks;
    # - with one provider, FIXED and DYNAMIC_SBAC give one report, with or
    #   without the physical stage and reuse: both take the lone pool's
    #   lowest free id;
    # - without the physical stage, DYNAMIC_SBAC's report does not depend on
    #   the SBAC weights or session_minutes, since admission reads only the
    #   busy count and a session's link and power come from its id
    topology = make_topology(num_providers=providers, channels=channels, num_links=links,
                             tolerance=tolerance)
    spec = spec_for(rates[:providers], holding=holding, horizon=200.0, seed=seed)
    qos_config = QosConfig(physical_checks=physical, channel_reuse=physical and reuse)
    reports = {strategy: run_simulation(topology, spec, strategy, qos_config=qos_config)[1]
               for strategy in Strategy}
    fixed, dynamic = reports[Strategy.FIXED], reports[Strategy.DYNAMIC_SBAC]
    if providers == 1:
        assert dynamic == dataclasses.replace(
            fixed, metadata={**fixed.metadata, "strategy": "DYNAMIC_SBAC"})
    if not physical:
        for strategy, report in reports.items():
            arrivals, blocked, _ = loss_counts(topology, spec, strategy)
            assert (report.arrivals, report.blocked_no_channel) == (arrivals, blocked)
            assert report.blocked_qos == report.blocked_interference == 0
        sbac_config = SbacConfig(*weights, session_minutes=session_minutes)
        assert run_simulation(topology, spec, Strategy.DYNAMIC_SBAC,
                              sbac_config=sbac_config)[1] == dynamic


def test_identical_inputs_give_identical_outputs(simple_topology):
    spec = spec_for([1.0], holding=3.0, horizon=500.0, seed=123)
    first = run_simulation(simple_topology, spec, Strategy.DYNAMIC_SBAC, keep_records=True)
    second = run_simulation(simple_topology, spec, Strategy.DYNAMIC_SBAC, keep_records=True)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_littles_law_holds():
    topology = make_topology(num_providers=1, channels=10)
    spec = spec_for([1.0], holding=3.0, horizon=20_000.0, seed=5)
    _, report = run_simulation(topology, spec, Strategy.FIXED)
    time_avg_active = report.spectral_efficiency * topology.total_channels
    littles_rhs = report.admitted / spec.horizon * spec.mean_holding_time
    # realized holdings fluctuate around the mean: sigma = m * sqrt(n) / horizon
    sigma = spec.mean_holding_time * math.sqrt(report.admitted) / spec.horizon
    assert abs(time_avg_active - littles_rhs) < 3.0 * sigma


def test_blocking_pressure_is_monotone_in_rate():
    topology = make_topology(num_providers=1, channels=2)
    means = []
    for rate in (0.5, 1.0, 2.0):
        blocked = [
            run_simulation(
                topology, spec_for([rate], holding=1.0, horizon=200.0, seed=seed),
                Strategy.FIXED,
            )[1].blocked_no_channel
            for seed in range(20)
        ]
        means.append(float(np.mean(blocked)))
    assert means[0] <= means[1] <= means[2]


def test_engine_interference_matches_trace_oracle():
    # FIXED without physical checks: every admitted session transmits at its
    # link's power from arrival to departure, so the records alone give the
    # piecewise-constant primary loads between consecutive arrivals/departures
    topology = make_topology(num_providers=1, channels=4)
    spec = spec_for([0.8], holding=2.0, horizon=100.0, seed=6)
    records, report = run_simulation(topology, spec, Strategy.FIXED, keep_records=True)
    admitted = [r for r in records if r.admitted]
    cuts = sorted(
        {0.0, spec.horizon}
        | {min(t, spec.horizon) for r in admitted for t in (r.arrival_time, r.end_time)}
    )
    g_ps = topology.gains.g_ps
    trace = []
    for start, end in zip(cuts, cuts[1:]):
        loads = np.zeros(g_ps.shape[0])
        for r in admitted:
            if r.arrival_time <= start and r.end_time >= end:
                loads += g_ps[:, r.link_id] * r.power
        trace.append((start, end, loads))
    oracle = mean_primary_interference(trace, spec.horizon)
    assert report.mean_primary_interference == pytest.approx(oracle, rel=1e-9)
    assert report.mean_primary_interference > 0.0


def test_run_is_one_shot(simple_topology):
    sim = Simulation(simple_topology, spec_for([0.5], horizon=20.0), Strategy.FIXED)
    sim.run()
    with pytest.raises(StateError, match="already called"):
        sim.run()


def test_reuse_audit_passes_check_qos_at_recorded_powers():
    # 8 providers x 10 channels, 32 links, 0.8 Erlang per channel: co-channel
    # groups of several links; audit=True recomputes every group's SINR with
    # link_sinr after every event and raises StateError when qos_met fails
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([0.8] * 8, holding=10.0, horizon=30.0, seed=3)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)
    records, report = run_simulation(
        topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True,
        keep_records=True,
    )
    admitted = [r for r in records if r.admitted]
    assert report.admitted == len(admitted) > 0
    assert all(r.power > 0 for r in admitted)
    overlapping_pairs = sum(
        1
        for i, a in enumerate(admitted)
        for b in admitted[i + 1:]
        if a.channel_id == b.channel_id and b.arrival_time < a.end_time
    )
    assert overlapping_pairs > 0


def test_admission_kernels_compile_once_per_size_per_process():
    # a second audited reuse run finds every group size's admission
    # compiled, so compiling stays out of a run's time and memory
    assert engine._admission(5) is engine._admission(5)
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([0.8] * 8, holding=10.0, horizon=30.0, seed=3)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)
    first = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config,
                           audit=True)
    compiled = engine._admission.cache_info()
    assert run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config,
                          audit=True) == first
    after = engine._admission.cache_info()
    assert after.misses == compiled.misses and after.hits > compiled.hits
    # group_powers runs the admission the run compiled for a pair: a hit
    assert engine.group_powers([0, 1], [0.1, 0.1], [0.01, 0.01], [[1.0] * 2] * 2) is not None
    solved = engine._admission.cache_info()
    assert solved.misses == after.misses and solved.hits == after.hits + 1


def test_a_physical_run_without_reuse_compiles_only_the_lone_link_admission():
    engine._admission.cache_clear()
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([0.8] * 8, holding=10.0, horizon=30.0, seed=3)
    _, report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC,
                               qos_config=QosConfig(physical_checks=True))
    assert report.admitted > 0
    assert engine._admission.cache_info().currsize == 1
    engine._admission(1)  # a hit: size 1 is the one size compiled
    assert engine._admission.cache_info().misses == 1


def compile_elimination(n):
    """The elimination's lines for ``n`` links alone, compiled as a function."""
    lines = ["def elimination(scale, u, g):", *engine.elimination_lines(n)]
    exec(compile("\n".join(lines), f"<elimination({n})>", "exec"), {})


def test_compiling_an_admission_peaks_near_compiling_its_elimination():
    # the admission wraps the elimination's lines in reads, checks and
    # write-back that grow as n, not n ** 3 / 3: at n = 16 its compile
    # peaked at 4.8 MiB against the elimination's 4.5 MiB on Python 3.11
    def peak(generate):
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        generate(16)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        admission = peak(engine._admission.__wrapped__)  # uncached: a fresh compile
        elimination = peak(compile_elimination)
    finally:
        tracemalloc.stop()
    assert admission <= 1.5 * elimination


ADMISSION_LINKS = 8  # links in the gain matrix of the admission property


def admission_tables(ids, gains, weights, noise, radius, caps, points):
    """The tables a Simulation binds for its admissions: ``scale``, ``u``,
    the gain rows, the caps and each primary point's gains row and
    tolerance.  The per-link ``weights`` are scaled so that the grown group
    ``ids`` has ``rho(F) = radius``, unless it is all but uncoupled."""
    g_ss = np.array(gains).reshape(ADMISSION_LINKS, ADMISSION_LINKS)
    weights = np.array(weights)
    coupling = weights[ids, None] * g_ss[np.ix_(ids, ids)]
    np.fill_diagonal(coupling, 0.0)
    rho = max(abs(np.linalg.eigvals(coupling)), default=0.0)
    scale = weights * (radius / rho if rho > 1e-9 else 1.0)
    return (scale.tolist(), (scale * np.array(noise)).tolist(), tuple(map(tuple, g_ss.tolist())),
            list(caps), tuple(tuple(row) for row, _, _ in points),
            [tolerance for _, tolerance, _ in points])


def admission_case(held=(), new_link=0, gains=(0.5,) * ADMISSION_LINKS**2,
                   weights=(1.0,) * ADMISSION_LINKS, noise=(0.01,) * ADMISSION_LINKS,
                   radius=0.5, caps=(20.0,) * ADMISSION_LINKS, points=()):
    """The property's arguments, defaults filled in, for its examples."""
    return dict(held=list(held), new_link=new_link, gains=list(gains), weights=list(weights),
                noise=list(noise), radius=radius, caps=list(caps), points=list(points))


ADMISSION_CASES = {
    # the 2-link group's rho(F) = 1.5: its second pivot is 1 - 1.5 ** 2
    "pivot": (Outcome.BLOCKED_QOS, admission_case(held=[(0, 1.0)], new_link=1, radius=1.5)),
    # a lone link's power is its u = 1.0, over its cap
    "cap": (Outcome.BLOCKED_QOS, admission_case(new_link=3, noise=(1.0,) * ADMISSION_LINKS,
                                                caps=(1e-3,) * ADMISSION_LINKS)),
    # the new link adds nothing at the point (gain 0), but the held member's
    # power rises from 1e-6 to 0.02 against a tolerance of 2e-6
    "raised": (Outcome.BLOCKED_INTERFERENCE, admission_case(
        held=[(0, 1e-6)], new_link=1, points=[([1.0] + [0.0] * 7, 2e-6, 1e-6)])),
    "admitted": (Outcome.ADMITTED, admission_case(
        held=[(0, 0.01), (2, 0.02)], new_link=5,
        points=[([0.1] * ADMISSION_LINKS, 10.0, 0.003), ([0.2] * ADMISSION_LINKS, 1.0, 0.0)])),
    # the edges of step 0, whose row the generated admission loads as its
    # own divided tail where the loop divides by the pivot 1.0: link 1's
    # all-zero gain row makes that tail -0.0 ...
    "zero row": (Outcome.ADMITTED, admission_case(
        held=[(1, 0.01), (4, 0.02)], new_link=6,
        gains=[0.0 if k // ADMISSION_LINKS == 1 else 0.5 for k in range(ADMISSION_LINKS**2)],
        points=[([0.1] * ADMISSION_LINKS, 10.0, 0.003)])),
    # ... and link 2's infinite u (its noise is inf) meets link 3's all-zero
    # row to put NaN in the second row and inf in the third
    "infinite u": (Outcome.BLOCKED_QOS, admission_case(
        held=[(2, 0.01), (3, 0.02)], new_link=5,
        gains=[0.0 if k // ADMISSION_LINKS == 3 else 0.5 for k in range(ADMISSION_LINKS**2)],
        noise=[math.inf if k == 2 else 0.01 for k in range(ADMISSION_LINKS)],
        points=[([0.1] * ADMISSION_LINKS, 10.0, 0.003)])),
}


def admit_both(held, new_link, gains, weights, noise, radius, caps, points):
    """Each of the generated admission and ``loop_admission`` on fresh
    records and loads: its outcome, the group's and the record's powers as
    exact float images, and the loads'."""
    ids = [link for link, _ in held] + [new_link]
    tables = admission_tables(ids, gains, weights, noise, radius, caps, points)
    results = []
    for admit in (engine._admission(len(ids)), loop_admission):
        records = [held_record(k, link, power) for k, (link, power) in enumerate(held)]
        records.append(held_record(len(held), new_link, 0.0))
        loads = [load for _, _, load in points]
        outcome = admit(records[:-1], records[-1], *tables, loads)
        results.append((outcome, [r.power.hex() for r in records], [x.hex() for x in loads]))
    return results


@given(
    held=st.lists(st.tuples(st.integers(0, ADMISSION_LINKS - 1), st.floats(1e-6, 10.0)),
                  max_size=7),
    new_link=st.integers(0, ADMISSION_LINKS - 1),
    gains=st.lists(st.floats(0.0, 1.0), min_size=ADMISSION_LINKS**2,
                   max_size=ADMISSION_LINKS**2),
    weights=st.lists(st.floats(0.1, 10.0), min_size=ADMISSION_LINKS, max_size=ADMISSION_LINKS),
    noise=st.lists(st.floats(1e-3, 1.0), min_size=ADMISSION_LINKS, max_size=ADMISSION_LINKS),
    radius=st.floats(0.5, 1.5),
    caps=st.lists(st.floats(1e-3, 20.0), min_size=ADMISSION_LINKS, max_size=ADMISSION_LINKS),
    points=st.lists(st.tuples(st.lists(st.floats(0.0, 1.0), min_size=ADMISSION_LINKS,
                                       max_size=ADMISSION_LINKS),
                              st.floats(0.0, 50.0), st.floats(0.0, 50.0)), max_size=3),
)
@settings(max_examples=300, deadline=None)
@example(**ADMISSION_CASES["pivot"][1])
@example(**ADMISSION_CASES["cap"][1])
@example(**ADMISSION_CASES["raised"][1])
@example(**ADMISSION_CASES["admitted"][1])
@example(**ADMISSION_CASES["zero row"][1])
@example(**ADMISSION_CASES["infinite u"][1])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generated_admission_equals_the_reference_bit_for_bit(
    held, new_link, gains, weights, noise, radius, caps, points
):
    # 0 to 7 held records, a link repeating as when two sessions on it share
    # a channel index, and 0 to 3 primary points, with rho(F) on either
    # side of 1: the same outcome, powers and loads to the bit, and a block
    # leaves every power and load as it was
    generated, reference = admit_both(held, new_link, gains, weights, noise, radius, caps,
                                      points)
    assert generated == reference
    outcome, powers, loads = generated
    if outcome is not Outcome.ADMITTED:
        assert powers == [power.hex() for _, power in held] + [(0.0).hex()]
        assert loads == [load.hex() for _, _, load in points]


@pytest.mark.parametrize("name", sorted(ADMISSION_CASES))
def test_each_admission_example_ends_as_named(name):
    expected, case = ADMISSION_CASES[name]
    (outcome, _, _), _ = admit_both(**case)
    assert outcome is expected


def test_audit_flags_drifted_primary_loads():
    tolerance = 4e-11
    topology = make_topology(num_providers=2, channels=3, num_links=6, tolerance=tolerance)
    spec = spec_for([0.8, 0.8], holding=10.0, horizon=30.0, seed=3)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)

    class Drifting(Simulation):
        def _audit_state(self, departures, busy):
            self.primary_loads[:] = [load + 1e-6 * tolerance for load in self.primary_loads]
            super()._audit_state(departures, busy)

    Simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True).run()
    drifting = Drifting(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True)
    with pytest.raises(StateError, match="primary loads"):
        drifting.run()


def test_audit_flags_a_power_below_its_solution():
    # a 1e-10 relative cut is far below the 1e-9 primary-load audit tolerance
    # but far above QOS_MARGIN, so only the SINR audit can see it
    topology = make_topology(num_providers=2, channels=3, num_links=6, tolerance=4e-11)
    spec = spec_for([0.8, 0.8], holding=10.0, horizon=30.0, seed=3)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)

    class Nudging(Simulation):
        def _physical_admission(self, channel_id, record):
            outcome = super()._physical_admission(channel_id, record)
            record.power *= 1.0 - 1e-10
            return outcome

    Simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True).run()
    nudging = Nudging(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True)
    with pytest.raises(StateError, match="SINR targets"):
        nudging.run()


def test_audit_flags_a_flipped_pool_bit_in_a_run():
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)

    class Flipping(Simulation):
        def _audit_state(self, departures, busy):
            # the lowest frequency's byte, after the one that is no channel
            self._pools[0].free_by_frequency[1] ^= 1
            super()._audit_state(departures, busy)

    Simulation(topology, spec, Strategy.DYNAMIC_SBAC, audit=True).run()
    with pytest.raises(StateError, match="masks"):
        Flipping(topology, spec, Strategy.DYNAMIC_SBAC, audit=True).run()


@pytest.mark.parametrize("corrupt,message", [
    (heapq.heappush, "differs"),  # a held id pushed onto the heap
    (lambda heap, held: heap.pop(), "differs"),  # a free id dropped
    (lambda heap, held: heap.reverse(), "heap order"),  # the free ids out of heap order
], ids=["held-on-heap", "free-dropped", "heap-order"])
def test_audit_flags_a_corrupted_free_id_heap(corrupt, message):
    # a FIXED run's heaps are corrupted once a provider holds one channel
    # and has at least two free; the audit names the provider
    class Corrupting(Simulation):
        done = False

        def _audit_state(self, departures, busy):
            for (_, _, provider_id, channel_id, _, _) in departures:
                heap = self._free_ids[provider_id]
                if not self.done and len(heap) >= 2:
                    self.done = True
                    corrupt(heap, channel_id)
            super()._audit_state(departures, busy)

    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    Simulation(topology, spec, Strategy.FIXED, audit=True).run()
    with pytest.raises(StateError, match=rf"^provider \d free-id heap \[.*\] .*{message}"):
        Corrupting(topology, spec, Strategy.FIXED, audit=True).run()


# -- per-event cost -----------------------------------------------------------------


def opcodes_per_arrival(topology, spec, strategy, qos_config=None, *, budget):
    """The opcodes a run executes per arrival, everything from the arrival
    stream to the departures counted, after one uncounted run that takes
    the first-call work out of the count; fails when they pass ``budget``,
    naming the five code objects that execute the most per arrival.  Unlike
    a timing, the count does not depend on the host, so a per-event
    regression shows wherever the tests run."""
    if sys.gettrace() is not None:
        pytest.skip("another tracer (a debugger or coverage) is active")
    run_simulation(topology, spec, strategy, qos_config=qos_config)
    by_code = Counter()

    def trace(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        if event == "opcode":
            by_code[frame.f_code] += 1
        return trace

    sys.settrace(trace)
    try:
        _, report = run_simulation(topology, spec, strategy, qos_config=qos_config)
    finally:
        sys.settrace(None)
    arrivals = report.arrivals
    assert 1_900 < arrivals < 2_100
    opcodes = by_code.total() / arrivals
    assert opcodes <= budget, f"{opcodes:.1f} opcodes per arrival, over {budget}; most in " + (
        ", ".join(f"{code.co_qualname} ({code.co_filename.rpartition('/')[2]}:"
                  f"{code.co_firstlineno}) {count / arrivals:.1f}"
                  for code, count in by_code.most_common(5)))
    return opcodes


CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budget counts CPython 3.11 bytecode")


@CPYTHON_311
def test_a_fixed_allocation_arrival_stays_within_its_bytecode_budget():
    # the Erlang-B case's shape (10 channels at 5 Erlangs): 586 opcodes per
    # arrival through three per-event methods, 500 with one event loop, 441
    # with departure entries that carry no record and the counters in locals,
    # 416 with a heap-and-set home pool and one pass over the points per
    # departure, 393 with the run stopped at the horizon, 305 with the run
    # popping and pushing each provider's heap of free ids instead of
    # selecting and calling a pool's take and give
    topology = make_topology(num_providers=1, channels=10)
    spec = spec_for([0.5], holding=10.0, horizon=4000.0, seed=7)
    opcodes_per_arrival(topology, spec, Strategy.FIXED, budget=312)


@CPYTHON_311
def test_a_dynamic_sbac_arrival_stays_within_its_bytecode_budget():
    # two scored pools of 10 channels at 5 Erlangs each: 788 opcodes per
    # arrival through three per-event methods, 699 with one event loop, 639
    # with departure entries that carry no record and the counters in locals,
    # 616 with the run stopped at the horizon, 610 with pools that are
    # always scored
    topology = make_topology(num_providers=2, channels=10)
    spec = spec_for([0.5, 0.5], holding=10.0, horizon=2000.0, seed=7)
    opcodes_per_arrival(topology, spec, Strategy.DYNAMIC_SBAC, budget=620)


@CPYTHON_311
def test_a_physical_reuse_arrival_stays_within_its_bytecode_budget():
    # 4 providers x 5 channels at 5 Erlangs each on 8 links, co-channel
    # groups of 1 to 4 and all three block causes: 1,086 opcodes per arrival
    # with the gains read through a flat memoryview, 1,031 with the
    # topology's rows and elimination step 0 folded into the loads, 1,034
    # with wider departure entries and the counters written back before
    # each physical admission, 1,014 with the counters the run's locals
    # until it ends, 991 with the run stopped at the horizon, 986 with pools
    # that are always scored
    topology = make_topology(num_providers=4, channels=5, num_links=8, tolerance=4e-11)
    spec = spec_for([0.5] * 4, holding=10.0, horizon=1000.0, seed=7)
    opcodes_per_arrival(topology, spec, Strategy.DYNAMIC_SBAC, REUSE, budget=995)


# -- the admission solve ------------------------------------------------------------


def schur_topology():
    """Four one-channel providers, so every session shares channel index 0,
    and six hand-coupled links: links 0-3 fit together, link 4's minimal
    power exceeds its 1 W cap and link 5 alone exceeds the primary budget."""
    links = tuple(physical_link(i, sinr_target=1.0 + 0.25 * i, y=20.0 * i) for i in range(4)) + (
        physical_link(4, sinr_target=12.0, y=80.0),  # 1.2 W alone
        physical_link(5, sinr_target=1.0, y=100.0),
    )
    g_ss = np.full((6, 6), 0.04) + np.diag([0.96] * 6)
    g_ss[0, 1], g_ss[1, 0], g_ss[2, 1], g_ss[3, 0] = 0.15, 0.02, 0.12, 0.09
    point = PrimaryReceivingPoint(id=0, position=(500.0, 500.0), tolerance=1.0)
    return explicit_gain_topology(
        g_ss, links, g_ps=[[0.5, 0.6, 0.7, 0.8, 0.1, 50.0]], points=(point,),
        providers=tuple(make_provider(i, channels=1, base_mhz=400.0 + 50.0 * i)
                        for i in range(4)),
    )


def assert_group_at_minimal_powers(topology, group):
    """A group's ``(link_id, power)`` pairs against solve_min_powers on the
    same links."""
    ids = [link_id for link_id, _ in group]
    noise, gain, sinr_target, power_max = link_arrays(topology.links, 1e5)
    solution = solve_min_powers(
        topology.gains.g_ss[np.ix_(ids, ids)], noise[ids], gain[ids], sinr_target[ids],
        power_max[ids], topology.gains.g_ps[:, ids], np.array([np.inf]),
    )
    np.testing.assert_allclose([power for _, power in group], solution.powers, rtol=1e-12)


class Snapshotting(Simulation):
    """An audited run that keeps, after each event, every co-channel group's
    links and powers and the primary loads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, audit=True, keep_records=True, **kwargs)
        self.states = []

    def _audit_state(self, departures, busy):
        super()._audit_state(departures, busy)
        self.states.append(({c: [(r.link_id, r.power) for r in group]
                             for c, group in self.groups.items() if group},
                            list(self.primary_loads)))


def test_schur_steps_track_the_group_solve(monkeypatch):
    # each admission solves the grown group afresh: its powers are the
    # minimal ones of solve_min_powers on that group.  Session i transmits
    # on link i; session 1 leaves at 1 s, and sessions 4 and 5 are refused
    monkeypatch.setattr(engine, "build_event_stream", lambda spec: [
        (0.0, 0, 10.0), (0.0, 0, 1.0), (0.0, 0, 10.0), (2.0, 0, 10.0), (3.0, 0, 10.0),
        (4.0, 0, 10.0),
    ])
    topology = schur_topology()
    sim = Snapshotting(topology, spec_for([1.0] * 4), Strategy.DYNAMIC_SBAC, qos_config=REUSE)
    records, _ = sim.run()
    groups = [state[0].get(0, []) for state in sim.states]
    for event, link_ids in enumerate([[0], [0, 1], [0, 1, 2]]):
        assert records[event].outcome is Outcome.ADMITTED
        assert [link_id for link_id, _ in groups[event]] == link_ids
        assert_group_at_minimal_powers(topology, groups[event])
    # a departure does no power work: the rest of the group keeps its powers
    assert groups[3] == [groups[2][0], groups[2][2]]
    assert records[3].outcome is Outcome.ADMITTED
    assert [link_id for link_id, _ in groups[4]] == [0, 2, 3]
    assert_group_at_minimal_powers(topology, groups[4])

    # a rejection leaves the held powers and the primary loads as they were
    assert records[4].outcome is Outcome.BLOCKED_QOS  # link 4: over its cap
    assert sim.states[5] == sim.states[4]
    assert records[5].outcome is Outcome.BLOCKED_INTERFERENCE  # link 5
    assert sim.states[6] == sim.states[4]


def test_infeasible_pair_leaves_the_cache_untouched(monkeypatch):
    # gamma = 3 and cross gain 0.5: the pair's second pivot 1 - (3 * 0.5) ** 2 < 0
    monkeypatch.setattr(engine, "build_event_stream", lambda spec: [(0.0, 0, 1.0),
                                                                    (0.0, 1, 1.0)])
    links = (physical_link(0, sinr_target=3.0, y=0.0), physical_link(1, sinr_target=3.0, y=20.0))
    providers = (make_provider(0, channels=1), make_provider(1, channels=1, base_mhz=450.0))
    topology = explicit_gain_topology([[1.0, 0.5], [0.5, 1.0]], links, providers=providers)
    sim = Snapshotting(topology, spec_for([1.0, 1.0]), Strategy.DYNAMIC_SBAC, qos_config=REUSE)
    (first, second), _ = sim.run()
    assert sim.states[0][0] == {0: [(0, first.power)]}
    assert second.outcome is Outcome.BLOCKED_QOS
    assert sim.states[1] == sim.states[0]


def test_qos_holds_through_a_group_that_never_empties():
    # 2 Erlang per channel on the benchmark's 8 x 10 reuse topology: every
    # channel index stays busy from its first admission to the horizon, and
    # the audit checks every held session's SINR after every event
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([2.0] * 8, holding=10.0, horizon=60.0, seed=5)
    emptied = []

    class Counting(Simulation):
        held = set()

        def _audit_state(self, departures, busy):
            held = {channel_id for channel_id, group in self.groups.items() if group}
            emptied.extend(self.held - held)
            self.held = held
            super()._audit_state(departures, busy)

    sim = Counting(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=REUSE, audit=True)
    _, report = sim.run()
    # no channel index emptied, and all 10 are held when the run stops
    assert report.admitted > 500
    held = {channel_id for channel_id, group in sim.groups.items() if group}
    assert emptied == [] and sim.held == held == set(range(10))


@pytest.mark.parametrize("seed", [3, 5])
def test_ill_conditioned_groups_meet_their_targets(seed):
    # every link at sinr_target 80 with noise 1e-16: feasible groups of up to
    # 8 links with cond(I - F_G) past 1e4.  Powers off the group's solve by
    # more than QOS_MARGIN miss a target, and the full audit checks every
    # held session's SINR after every event
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=1.0,
                             sinr_target=80.0, noise=1e-16)
    spec = spec_for([0.8] * 8, holding=10.0, horizon=40.0, seed=seed)
    _, gain, sinr_target, _ = link_arrays(topology.links, 1e5)
    g_ss = topology.gains.g_ss
    scale = qos.coupling_scale(g_ss, gain, sinr_target)
    conditions = []

    class Conditioning(Simulation):
        def _physical_admission(self, channel_id, record):
            outcome = super()._physical_admission(channel_id, record)
            if outcome is Outcome.ADMITTED:
                ids = [member.link_id for member in self.groups[channel_id]] + [record.link_id]
                system = -scale[ids, None] * g_ss[np.ix_(ids, ids)]
                np.fill_diagonal(system, 1.0)
                conditions.append(np.linalg.cond(system))
            return outcome

    _, report = Conditioning(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=REUSE,
                             audit=True).run()
    assert report.admitted > 90 and report.blocked_qos > 0
    assert max(conditions) > 1e4


def test_reuse_runs_make_no_dense_solve(monkeypatch):
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([0.8] * 8, holding=10.0, horizon=60.0, seed=3)
    expected = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=REUSE)

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense solve was called")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    assert run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=REUSE) == expected


@pytest.mark.parametrize("strategy", [Strategy.FIXED, Strategy.DYNAMIC_SBAC])
def test_selection_never_lists_free_channels(strategy, monkeypatch):
    # building each pool's free-channel tuple per arrival costs O(channels);
    # the run must be scored from the live pools' summaries alone
    topology = shuffled_topology()
    spec = spec_for([2.0, 0.5, 1.5], holding=5.0, horizon=60.0, seed=14)
    expected = run_simulation(topology, spec, strategy)

    def forbidden(pool):
        raise AssertionError("available_channels was read")

    monkeypatch.setattr(LivePool, "available_channels", property(forbidden))
    assert run_simulation(topology, spec, strategy, audit=True) == expected


def test_fixed_allocation_never_scores_its_home_pool(monkeypatch):
    # the home provider is the lone candidate: a FIXED run takes its lowest
    # free id from the run's heap, so it builds no pool and selects nothing,
    # audited or not, and its report is the one recorded when it did both
    def forbidden(*args):
        raise AssertionError("a FIXED run built a pool or selected among pools")

    monkeypatch.setattr(engine, "LivePool", forbidden)
    monkeypatch.setattr(sbac, "select_best_channel", forbidden)
    spec = spec_for([2.0, 0.5, 1.5], holding=5.0, horizon=60.0, seed=14)
    for audit in (False, True):
        _, report = run_simulation(shuffled_topology(), spec, Strategy.FIXED, audit=audit)
        assert dataclasses.asdict(report) == dict(
            mean_propagation_delay=8.333333333333317e-07,
            mean_rtt=1.6666666666666635e-06,
            throughput=1269815.5585680602,
            mean_primary_interference=5.832283194949123e-10,
            spectral_efficiency=0.7054530880933665,
            blocking_probability=0.35,
            arrivals=220, admitted=143, blocked_no_channel=77, blocked_qos=0,
            blocked_interference=0,
            metadata={"strategy": "FIXED", "seed": 14, "horizon": 60.0,
                      "per_point_interference_w": [5.832283194949123e-10]},
        )


def test_throughput_never_exceeds_capacity_bound():
    topology = make_topology(num_providers=2, channels=3)
    bound = topology.total_channels * 1e5
    for seed in range(5):
        spec = spec_for([4.0, 4.0], holding=5.0, horizon=100.0, seed=seed)
        _, report = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC)
        assert report.throughput <= bound + 1e-6


def test_sbac_config_affects_selection():
    # strongly cost-weighted selection prefers the cheap provider
    cheap = make_provider(0, channels=4, cost_rate=0.01)
    pricey = make_provider(1, channels=4, base_mhz=450.0, cost_rate=10.0)
    base = make_topology(num_providers=2, channels=4)
    topology = dataclasses.replace(base, providers=(cheap, pricey))
    spec = spec_for([0.0, 0.4], holding=1.0, horizon=50.0, seed=8)
    sbac_config = SbacConfig(0.0, 0.0, 1.0)
    records, _ = run_simulation(
        topology, spec, Strategy.DYNAMIC_SBAC, sbac_config=sbac_config, keep_records=True
    )
    admitted = [r for r in records if r.admitted]
    assert admitted
    assert all(r.provider_id == 0 for r in admitted)


# -- golden runs ----------------------------------------------------------------------

# Report fields of short runs: the first three recorded before the engine kept
# its live sessions as records alone, "shuffled_reuse" before it kept live
# channel pools, "weighted_reuse" before the pools folded the utility's
# constants into per-pool scalars. Any later edit to the event loop or its
# bookkeeping must reproduce them exactly; the physical runs' interference
# comes from running sums of floats and may move in its last digits.
GOLDEN_RUNS = {
    "fixed": dict(
        mean_propagation_delay=8.333333333333294e-07,
        mean_rtt=1.6666666666666588e-06,
        throughput=256169.36329904952,
        mean_primary_interference=1.1599896526433425e-10,
        spectral_efficiency=0.5123387265981003,
        blocking_probability=0.11072056239015818,
        arrivals=569, admitted=506, blocked_no_channel=63, blocked_qos=0,
        blocked_interference=0,
    ),
    "sbac": dict(
        mean_propagation_delay=8.333333333333339e-07,
        mean_rtt=1.6666666666666677e-06,
        throughput=739253.8336346573,
        mean_primary_interference=3.39975439387248e-10,
        spectral_efficiency=0.6160448613622144,
        blocking_probability=0.02894736842105263,
        arrivals=380, admitted=369, blocked_no_channel=11, blocked_qos=0,
        blocked_interference=0,
    ),
    "physical_reuse": dict(
        mean_propagation_delay=8.333333333333321e-07,
        mean_rtt=1.6666666666666641e-06,
        throughput=1535304.5634330786,
        mean_primary_interference=7.771839380941133e-12,
        spectral_efficiency=0.7676522817165397,
        blocking_probability=0.425414364640884,
        arrivals=181, admitted=104, blocked_no_channel=38, blocked_qos=1,
        blocked_interference=38,
    ),
    "shuffled_reuse": dict(
        mean_propagation_delay=8.333333333333331e-07,
        mean_rtt=1.6666666666666662e-06,
        throughput=1408829.9179279588,
        mean_primary_interference=7.314473621880384e-12,
        spectral_efficiency=0.7826832877377552,
        blocking_probability=0.2545454545454545,
        arrivals=220, admitted=164, blocked_no_channel=16, blocked_qos=2,
        blocked_interference=38,
    ),
    "weighted_reuse": dict(
        mean_propagation_delay=8.333333333333342e-07,
        mean_rtt=1.6666666666666684e-06,
        throughput=1350107.272617738,
        mean_primary_interference=6.287055062877895e-12,
        spectral_efficiency=0.7500595958987426,
        blocking_probability=0.2096069868995633,
        arrivals=229, admitted=181, blocked_no_channel=38, blocked_qos=0,
        blocked_interference=10,
    ),
}

# (channel id, MHz offset) in list order: list order, id order and frequency
# order all differ, the ids skip values and channels 7 and 5 share a frequency
SHUFFLED_CHANNELS = ((7, 3.0), (2, 0.0), (11, 1.0), (5, 3.0), (0, 2.0), (9, 4.5))


def shuffled_provider(provider_id, base_mhz, spacing_mhz, cost_rate):
    rotated = SHUFFLED_CHANNELS[provider_id:] + SHUFFLED_CHANNELS[:provider_id]
    return ServiceProvider(
        id=provider_id,
        channels=tuple(
            SpectrumChannel(
                id=channel_id,
                center_frequency=(base_mhz + offset * spacing_mhz) * 1e6,
                bandwidth=1e6,
            )
            for channel_id, offset in rotated
        ),
        cost_rate=cost_rate,
    )


def shuffled_topology(num_links=12, tolerance=1e-11):
    base = make_topology(num_providers=3, channels=6, num_links=num_links, tolerance=tolerance)
    providers = tuple(
        shuffled_provider(i, 400.0 + 50.0 * i, spacing, cost)
        for i, (spacing, cost) in enumerate([(1.0, 0.05), (2.5, 0.04), (0.5, 0.08)])
    )
    return dataclasses.replace(base, providers=providers)


# cost-heavy weights and a 3-minute session, so that a slip in any term of a
# pool's score (10 * beta1, beta2, or the cost from beta3, session_minutes and
# the cost rate) moves the "weighted_reuse" report
WEIGHTED = SbacConfig(0.2, 0.2, 0.6, session_minutes=3.0)


def golden_case(name):
    """``(topology, spec, strategy, sbac_config, qos_config)`` of a golden run."""
    if name == "fixed":
        return (make_topology(num_providers=1, channels=5),
                spec_for([3.0], holding=1.0, horizon=200.0, seed=11), Strategy.FIXED, None, None)
    if name == "sbac":
        return (make_topology(num_providers=3, channels=4),
                spec_for([2.0, 0.5, 1.0], holding=2.0, horizon=100.0, seed=12),
                Strategy.DYNAMIC_SBAC, None, None)
    if name == "shuffled_reuse":
        # reuse makes equal channel ids co-channel, so which free channel is
        # picked in a shuffled band shows in the powers and the block causes
        return (shuffled_topology(), spec_for([2.0, 0.5, 1.5], holding=5.0, horizon=60.0, seed=14),
                Strategy.DYNAMIC_SBAC, None, REUSE)
    if name == "weighted_reuse":
        # without physical checks the chosen provider changes no report
        # field; with reuse it shows in the co-channel groups
        return (shuffled_topology(), spec_for([2.0, 0.5, 1.5], holding=5.0, horizon=60.0, seed=15),
                Strategy.DYNAMIC_SBAC, WEIGHTED, REUSE)
    # four bands reuse five channel indexes and the primary budget is tight,
    # so all three block causes occur
    return (make_topology(num_providers=4, channels=5, num_links=16, tolerance=1e-11),
            spec_for([0.8] * 4, holding=10.0, horizon=60.0, seed=13), Strategy.DYNAMIC_SBAC,
            None, REUSE)


def assert_golden_report(name):
    topology, spec, strategy, sbac_config, qos_config = golden_case(name)
    _, report = run_simulation(topology, spec, strategy, sbac_config=sbac_config,
                               qos_config=qos_config, audit=True)
    fields = dataclasses.asdict(report)
    metadata = fields.pop("metadata")
    expected = dict(GOLDEN_RUNS[name])
    interference = expected["mean_primary_interference"]
    if qos_config is not None:
        expected.pop("mean_primary_interference")
        assert fields.pop("mean_primary_interference") == pytest.approx(interference, rel=1e-12)
        assert metadata["per_point_interference_w"] == pytest.approx([interference], rel=1e-12)
    else:
        assert metadata["per_point_interference_w"] == [interference]
    assert fields == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_run_reports(name):
    assert_golden_report(name)


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12+ takes it: ints exactly, floats compensated."""
    values = list(values)
    if all(isinstance(value, int) for value in values):
        return builtins.sum(values, start)
    return math.fsum([start, *values])


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_run_reports_do_not_depend_on_how_python_sums(name, monkeypatch):
    # Python 3.12 compensates sum() of floats; the reports must not change
    # on an interpreter that does
    monkeypatch.setattr(engine, "sum", compensated_sum, raising=False)
    assert_golden_report(name)


def exact(value):
    """``value`` with every float, in dicts and lists too, as its exact
    image, so that ``==`` compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, list):
        return [exact(item) for item in value]
    return value


def unit_run(case, time=0, power=0, audit=True):
    """The run ``case`` (a :func:`golden_case` tuple) with every arrival rate
    times ``2 ** time`` and the holding time and horizon over it, and every
    link's noise, nominal power and cap and every point's tolerance times
    ``2 ** power``: its report fields and its metadata."""
    topology, spec, strategy, sbac_config, qos_config = case
    spec = dataclasses.replace(
        spec, arrival_rates=tuple(math.ldexp(rate, time) for rate in spec.arrival_rates),
        mean_holding_time=math.ldexp(spec.mean_holding_time, -time),
        horizon=math.ldexp(spec.horizon, -time))
    links = tuple(dataclasses.replace(link, noise=math.ldexp(link.noise, power),
                                      power=math.ldexp(link.power, power),
                                      power_max=math.ldexp(link.power_max, power))
                  for link in topology.links)
    points = tuple(dataclasses.replace(point, tolerance=math.ldexp(point.tolerance, power))
                   for point in topology.primary_points)
    topology = dataclasses.replace(topology, links=links, primary_points=points)
    _, report = run_simulation(topology, spec, strategy, sbac_config=sbac_config,
                               qos_config=qos_config, audit=audit)
    fields = dataclasses.asdict(report)
    return fields, fields.pop("metadata")


def unit_prediction(base, time=0, power=0):
    """What :func:`unit_run` must return, from the untransformed run's
    ``(fields, metadata)``: under the time relation only the horizon moves,
    under the power relation only the interference, each exactly."""
    fields, metadata = base
    interference = math.ldexp(fields["mean_primary_interference"], power)
    per_point = [math.ldexp(x, power) for x in metadata["per_point_interference_w"]]
    return ({**fields, "mean_primary_interference": interference},
            {**metadata, "horizon": math.ldexp(metadata["horizon"], -time),
             "per_point_interference_w": per_point})


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_runs_are_exactly_invariant_to_their_units(name):
    # every comparison the engine makes is homogeneous and scaling by a
    # power of two is exact, so a hidden absolute constant (a clock epsilon,
    # a power floor) or a unit slip breaks one of these relations
    base = unit_run(golden_case(name))
    for k in (1, -2, 10):  # time: the same report; only the horizon moves
        assert exact(unit_run(golden_case(name), time=k)) == exact(unit_prediction(base, time=k))
    for k in (2, -20):  # power: the interference scales, nothing else moves
        assert exact(unit_run(golden_case(name), power=k)) == exact(
            unit_prediction(base, power=k))


def normal_floats(value):
    """Whether every float in ``value`` (and its dicts and lists) is zero or
    normal: finite, and not subnormal."""
    if isinstance(value, float):
        return value == 0.0 or sys.float_info.min <= abs(value) < math.inf
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, (list, tuple)) or all(map(normal_floats, value))


@pytest.mark.parametrize("relation", ["time", "power"])
@given(
    providers=st.integers(1, 3),
    channels=st.integers(1, 4),
    links=st.integers(1, 6),
    strategy=st.sampled_from(Strategy),
    physical=st.booleans(),
    reuse=st.booleans(),
    tolerance=st.sampled_from([1e-3, 4e-11, 1e-11]),
    load=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**16),
    k=st.one_of(st.integers(-60, -1), st.integers(1, 60)),
)
@settings(max_examples=200, deadline=None)
def test_small_runs_are_exactly_invariant_to_their_units(
    relation, providers, channels, links, strategy, physical, reuse, tolerance, load, seed, k
):
    # the golden cases' relations over drawn scenarios: k spans 2**-60 to
    # 2**60, where an absolute term such as 1e-20 W added to every noise
    # power, invisible at k = 0, moves a power solve's last bits.  A draw
    # whose report, at either scale, leaves the normal floats is refused
    topology = make_topology(
        num_providers=providers, channels=channels, num_links=links, tolerance=tolerance
    )
    spec = spec_for([load * (1 + p) for p in range(providers)], holding=3.0, horizon=20.0,
                    seed=seed)
    qos_config = QosConfig(physical_checks=physical, channel_reuse=physical and reuse)
    case = (topology, spec, strategy, None, qos_config)
    scale = {relation: k}
    prediction = unit_prediction(unit_run(case, audit=False), **scale)
    transformed = unit_run(case, audit=False, **scale)
    assume(normal_floats(prediction) and normal_floats(transformed))
    assert exact(transformed) == exact(prediction)


def test_a_run_holds_no_more_memory_over_a_longer_horizon():
    # the streamed report keeps nothing per arrival or per admission, so
    # doubling the horizon (about 5,000 more arrivals) leaves the peak where
    # it was; a list of 8-byte entries per admission would add about 40 KiB
    topology = make_topology(num_providers=1, channels=10)

    def peak(horizon):
        spec = spec_for([0.5], holding=10.0, horizon=horizon, seed=5)
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run_simulation(topology, spec, Strategy.FIXED)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(1e3)  # warm-up: first-use allocations
        growth = peak(2e4) - peak(1e4)
    finally:
        tracemalloc.stop()
    assert growth < 4096


@pytest.mark.parametrize("qos_config", [QosConfig(), REUSE])
def test_a_built_simulation_has_slots_and_no_instance_dict(qos_config):
    # a dict past the interpreter's shared-key limit (30 keys on 3.11)
    # grew from 296 to 1,584 B per run; a subclass may still add its own
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    simulation = Simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config)
    assert not hasattr(simulation, "__dict__")
    with pytest.raises(AttributeError):
        simulation.unknown = 1

    class Marking(Simulation):
        def _audit_state(self, departures, busy):
            super()._audit_state(departures, busy)
            self.audited = True

    marking = Marking(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config, audit=True)
    assert marking.run()[1] == simulation.run()[1]
    assert marking.audited


def test_a_built_simulation_holds_scalars_per_pool_not_tables():
    # what a DYNAMIC_SBAC run holds before its first event, 10 providers of
    # 100 channels: at most 29,680 B over 5 builds on Python 3.11 before each
    # pool kept its score's constants as scalars; a dict per pool keyed by
    # channel id, or a tuple per pool indexed by free count, breaks the bound
    topology = make_topology(num_providers=10, channels=100)
    spec = spec_for([1.0] * 10)

    def held():
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        simulation = Simulation(topology, spec, Strategy.DYNAMIC_SBAC)
        size = tracemalloc.get_traced_memory()[0] - before
        del simulation
        return size

    tracemalloc.start()
    try:
        held()  # warm-up: first-use allocations
        size = held()
    finally:
        tracemalloc.stop()
    assert size < 1.25 * 29_680


# Full reports of a 3-point topology, recorded before the primary loads and
# integrals became lists of floats: each point's running sums must still
# take the same IEEE multiplies and adds, to the bit, with and without the
# power solve.  "physical_reuse" also pins the admission solve's rounding,
# which reaches the last digits of its interference.
GOLDEN_THREE_POINT_RUNS = {
    "fixed": dict(
        mean_propagation_delay=7.211102550927979e-07,
        mean_rtt=1.4422205101855957e-06,
        throughput=755224.8000700597,
        mean_primary_interference=7.142044598366335e-10,
        spectral_efficiency=0.6293540000583828,
        blocking_probability=0.2556818181818182,
        arrivals=176, admitted=131, blocked_no_channel=45, blocked_qos=0,
        blocked_interference=0,
        metadata={
            "strategy": "FIXED", "seed": 21, "horizon": 80.0,
            "per_point_interference_w": [
                9.060560905852713e-10, 5.696611359158168e-10, 6.668961530088124e-10,
            ],
        },
    ),
    "physical_reuse": dict(
        mean_propagation_delay=7.211102550927979e-07,
        mean_rtt=1.4422205101855957e-06,
        throughput=738114.8921824765,
        mean_primary_interference=1.7767099141751754e-11,
        spectral_efficiency=0.6150957434853973,
        blocking_probability=0.18181818181818182,
        arrivals=176, admitted=144, blocked_no_channel=4, blocked_qos=10,
        blocked_interference=18,
        metadata={
            "strategy": "DYNAMIC_SBAC", "seed": 21, "horizon": 80.0,
            "per_point_interference_w": [
                1.416061837009409e-11, 1.892659604071909e-11, 2.0214083014442075e-11,
            ],
        },
    ),
}


def three_point_topology(tolerance=3e-11):
    providers = tuple(make_provider(i, channels=4, base_mhz=400.0 + 50.0 * i) for i in range(3))
    links = tuple(
        make_link(i, tx=(250.0 * i, y), rx=(250.0 * i + 180.0, y + 120.0))
        for i, y in enumerate([0.0, 100.0, 200.0] * 3)
    )
    points = tuple(
        PrimaryReceivingPoint(id=j, position=position, tolerance=tolerance * (j + 1))
        for j, position in enumerate([(900.0, 900.0), (-400.0, 600.0), (2200.0, -500.0)])
    )
    gains = gains_from_positions(links, points, path_loss_exponent=3.0, reference_distance=1.0)
    return NetworkTopology(providers=providers, links=links, primary_points=points, gains=gains)


@pytest.mark.parametrize("name", sorted(GOLDEN_THREE_POINT_RUNS))
def test_golden_three_point_run_reports(name):
    spec = spec_for([1.0, 0.6, 0.8], holding=4.0, horizon=80.0, seed=21)
    if name == "fixed":
        strategy, qos_config = Strategy.FIXED, None
    else:
        strategy, qos_config = Strategy.DYNAMIC_SBAC, QosConfig(physical_checks=True,
                                                                channel_reuse=True)
    sim = Simulation(three_point_topology(), spec, strategy, qos_config=qos_config, audit=True)
    loads, integral = sim.primary_loads, sim.primary_integral
    _, report = sim.run()
    assert dataclasses.asdict(report) == GOLDEN_THREE_POINT_RUNS[name]
    # every event updates the per-point sums in place: no list is rebuilt
    assert sim.primary_loads is loads and sim.primary_integral is integral
