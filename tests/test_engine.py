"""Event loop, admission outcomes, held sessions and the clock, run invariants."""
from __future__ import annotations

import builtins
import dataclasses
import gc
import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from dsasim.engine import Simulation
from dsasim.sbac import LivePool
from dsasim.qos import QOS_MARGIN

from conftest import explicit_gain_topology, make_link, make_provider, make_topology
from oracles import mean_primary_interference, solve_min_powers


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


def test_occupancy_release_restores_prior_state():
    # the heap drains every departure, also those past the horizon, so a run
    # ends with nothing held and every pool whole again
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    sim = Simulation(topology, spec, Strategy.DYNAMIC_SBAC, audit=True)
    _, report = sim.run()
    assert report.blocked_no_channel > 0  # the channels did fill up
    assert sim.busy == 0
    assert sim.groups and all(group == [] for group in sim.groups.values())
    assert all(pool.free_count == pool.total_channels for pool in sim._pools)


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
    assert sim.clock == records[0].end_time  # its departure moved the clock last
    assert sim.busy_integral == pytest.approx(spec.horizon - records[0].arrival_time, rel=1e-12)
    assert report.spectral_efficiency <= 1.0


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

    class Stopping(Simulation):
        def _admit(self, event):
            if self.arrivals == stop_after:
                raise Stop
            return super()._admit(event)

    monkeypatch.setattr(traffic, "provider_rng", lambda *args: Counting(provider_rng(*args)))
    topology = make_topology(num_providers=3, channels=3)
    spec = spec_for([1.5, 0.5, 1.0], holding=2.0, horizon=700.0, seed=1)
    with pytest.raises(Stop):
        Stopping(topology, spec, Strategy.DYNAMIC_SBAC).run()
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


def run_with_engine(engine_class, audit=False):
    topology = make_topology(num_providers=2, channels=3)
    spec = spec_for([1.5, 0.5], holding=2.0, horizon=50.0, seed=1)
    return engine_class(topology, spec, Strategy.DYNAMIC_SBAC, audit=audit).run()


def test_double_release_is_a_state_error():
    class DepartingTwice(Simulation):
        def _depart(self, record):
            super()._depart(record)
            super()._depart(record)

    with pytest.raises(StateError, match="holds no channel"):
        run_with_engine(DepartingTwice)


def test_double_occupancy_is_a_state_error(monkeypatch):
    # a record equal to a held one but not it is not held: identity decides
    class DepartingACopy(Simulation):
        def _depart(self, record):
            super()._depart(dataclasses.replace(record))

    with pytest.raises(StateError, match="holds no channel"):
        run_with_engine(DepartingACopy)
    # nor may a second session be admitted onto a held channel
    monkeypatch.setattr(sbac, "select_best_channel", lambda pools: (0, 0, 1.0))
    with pytest.raises(StateError, match=r"channel \(0, 0\) is already held"):
        run_with_engine(Simulation)


def test_audit_flags_a_record_held_under_another_slot():
    class Relabelling(Simulation):
        def _admit(self, event):
            record = super()._admit(event)
            if record.admitted and record.session_id == 4:
                record.channel_id += 100
            return record

    with pytest.raises(StateError, match="session 4 is held on channel"):
        run_with_engine(Relabelling, audit=True)


def test_audit_flags_a_miscounted_busy_channel():
    class Miscounting(Simulation):
        def _depart(self, record):
            super()._depart(record)
            self.busy += 1

    run_with_engine(Simulation, audit=True)
    with pytest.raises(StateError, match="busy count"):
        run_with_engine(Miscounting, audit=True)


@pytest.mark.parametrize("fault", ["kept", "dropped"])
def test_audit_flags_a_departure_heap_out_of_step(fault):
    # the heap must hold one departure per held session: here the first
    # departure's entry goes back in, due never, after the session left,
    # or the next entry is dropped while its session is still held
    class Leaking(Simulation):
        done = False

        def _depart_next(self, departures):
            entry = departures[0]
            super()._depart_next(departures)
            if self.done or (fault == "dropped" and not departures):
                return
            self.done = True
            if fault == "kept":
                heapq.heappush(departures, (math.inf, *entry[1:]))
            else:
                heapq.heappop(departures)

    with pytest.raises(StateError, match="departure heap holds"):
        run_with_engine(Leaking, audit=True)


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
    assert sim.busy == 0 and not any(sim.groups.values())
    assert 0.0 <= report.spectral_efficiency <= 1.0
    assert report.mean_rtt == 2 * report.mean_propagation_delay
    assert run_simulation(
        topology, spec, strategy, qos_config=qos_config, keep_records=True
    ) == (records, report)
    # the streamed report is the same without the records, which are None
    assert run_simulation(topology, spec, strategy, qos_config=qos_config, audit=True) == (
        None, report
    )


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
    # a second audited reuse run finds every group size's kernel compiled,
    # so compiling stays out of a run's time and memory
    assert qos._kernel(5) is qos._kernel(5)
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([0.8] * 8, holding=10.0, horizon=30.0, seed=3)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)
    first = run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config,
                           audit=True)
    compiled = qos._kernel.cache_info()
    assert run_simulation(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=qos_config,
                          audit=True) == first
    after = qos._kernel.cache_info()
    assert after.misses == compiled.misses and after.hits > compiled.hits


def test_audit_flags_drifted_primary_loads():
    tolerance = 4e-11
    topology = make_topology(num_providers=2, channels=3, num_links=6, tolerance=tolerance)
    spec = spec_for([0.8, 0.8], holding=10.0, horizon=30.0, seed=3)
    qos_config = QosConfig(physical_checks=True, channel_reuse=True)

    class Drifting(Simulation):
        def _depart(self, record):
            super()._depart(record)
            self.primary_loads = [load + 1e-6 * tolerance for load in self.primary_loads]

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
        def _depart(self, record):
            super()._depart(record)
            self._pools[record.provider_id].frequency_mask ^= 1

    Simulation(topology, spec, Strategy.DYNAMIC_SBAC, audit=True).run()
    with pytest.raises(StateError, match="masks"):
        Flipping(topology, spec, Strategy.DYNAMIC_SBAC, audit=True).run()


# -- the admission solve ------------------------------------------------------------

REUSE = QosConfig(physical_checks=True, channel_reuse=True)


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


def assert_group_at_minimal_powers(sim, channel_id=0):
    """The group's powers against solve_min_powers on the same links."""
    ids = [record.link_id for record in sim.groups[channel_id]]
    noise, gain, sinr_target, power_max = link_arrays(sim.topology.links, 1e5)
    solution = solve_min_powers(
        sim.topology.gains.g_ss[np.ix_(ids, ids)], noise[ids], gain[ids], sinr_target[ids],
        power_max[ids], sim.topology.gains.g_ps[:, ids], np.array([np.inf]),
    )
    powers = [record.power for record in sim.groups[channel_id]]
    np.testing.assert_allclose(powers, solution.powers, rtol=1e-12)


def held_state(sim):
    """Every held session's power, and the primary loads."""
    powers = {c: [record.power for record in group] for c, group in sim.groups.items()}
    return powers, list(sim.primary_loads)


def test_schur_steps_track_the_group_solve():
    # each admission solves the grown group afresh: its powers are the
    # minimal ones of solve_min_powers on that group
    sim = Simulation(schur_topology(), spec_for([1.0] * 4), Strategy.DYNAMIC_SBAC,
                     qos_config=REUSE)
    admitted = []
    for link_id in range(3):  # session i transmits on link i
        admitted.append(sim._admit((0.0, 0, 1.0)))
        assert admitted[-1].outcome is Outcome.ADMITTED
        assert [r.link_id for r in sim.groups[0]] == list(range(link_id + 1))
        assert_group_at_minimal_powers(sim)
    # a departure does no power work: the rest of the group keeps its powers
    before = [r.power for r in sim.groups[0]]
    sim._depart(admitted[1])
    assert [r.link_id for r in sim.groups[0]] == [0, 2]
    assert [r.power for r in sim.groups[0]] == [before[0], before[2]]
    admitted.append(sim._admit((0.0, 0, 1.0)))
    assert admitted[-1].outcome is Outcome.ADMITTED
    assert [r.link_id for r in sim.groups[0]] == [0, 2, 3]
    assert_group_at_minimal_powers(sim)

    # a rejection leaves the held powers and the primary loads as they were
    before = held_state(sim)
    assert sim._admit((0.0, 0, 1.0)).outcome is Outcome.BLOCKED_QOS  # link 4: over its cap
    assert held_state(sim) == before
    assert sim._admit((0.0, 0, 1.0)).outcome is Outcome.BLOCKED_INTERFERENCE  # link 5
    assert held_state(sim) == before
    sim._audit_qos()


def test_infeasible_pair_leaves_the_cache_untouched():
    # gamma = 3 and cross gain 0.5: the pair's second pivot 1 - (3 * 0.5) ** 2 < 0
    links = (physical_link(0, sinr_target=3.0, y=0.0), physical_link(1, sinr_target=3.0, y=20.0))
    providers = (make_provider(0, channels=1), make_provider(1, channels=1, base_mhz=450.0))
    topology = explicit_gain_topology([[1.0, 0.5], [0.5, 1.0]], links, providers=providers)
    sim = Simulation(topology, spec_for([1.0, 1.0]), Strategy.DYNAMIC_SBAC, qos_config=REUSE)
    first = sim._admit((0.0, 0, 1.0))
    before = held_state(sim)
    assert before[0] == {0: [first.power]}
    assert sim._admit((0.0, 1, 1.0)).outcome is Outcome.BLOCKED_QOS
    assert held_state(sim) == before


def test_qos_holds_through_a_group_that_never_empties():
    # 2 Erlang per channel on the benchmark's 8 x 10 reuse topology: the low
    # channel indexes stay busy until the final drain, and the audit checks
    # every held session's SINR after every event
    topology = make_topology(num_providers=8, channels=10, num_links=32, tolerance=4e-11)
    spec = spec_for([2.0] * 8, holding=10.0, horizon=60.0, seed=5)
    emptied = []

    class Counting(Simulation):
        def _depart(self, record):
            super()._depart(record)
            if not self.groups[record.channel_id]:
                emptied.append(record.channel_id)

    _, report = Counting(topology, spec, Strategy.DYNAMIC_SBAC, qos_config=REUSE,
                         audit=True).run()
    # each channel index emptied once, as the run drained its departures
    assert report.admitted > 500
    assert sorted(emptied) == list(range(10))


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
    # the home pool is the lone candidate: it is built without the config a
    # pool scores itself with, so it wins unscored, and nothing in an
    # unaudited run reads the frequencies that only the audit needs
    topology = shuffled_topology()
    spec = spec_for([2.0, 0.5, 1.5], holding=5.0, horizon=60.0, seed=14)
    expected = run_simulation(topology, spec, Strategy.FIXED)
    assert 0 < expected[1].blocked_no_channel < expected[1].admitted

    def unscored(provider, config=None):
        if config is not None:
            raise AssertionError("the home pool was built to be scored")
        return LivePool(provider)

    def forbidden(*args):
        raise AssertionError("a free frequency was read")

    monkeypatch.setattr(engine, "LivePool", unscored)
    assert run_simulation(topology, spec, Strategy.FIXED, audit=True) == expected
    for name in ("min_free_frequency", "max_free_frequency"):
        monkeypatch.setattr(LivePool, name, property(forbidden))
    assert run_simulation(topology, spec, Strategy.FIXED) == expected


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
