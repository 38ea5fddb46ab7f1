"""Deterministic discrete-event loop over arrivals and departures.

Arrivals are drawn lazily from :func:`~dsasim.traffic.build_event_stream`,
which holds one pending arrival per provider, and the event queue is a heap
of the held sessions' departures keyed ``(end_time, session_id)``.

Every arrival is offered the candidate pools its strategy allows (home
provider only under fixed allocation, all providers under dynamic
selection), the best-available-channel rule picks a free channel, and an
optional physical-layer stage re-solves minimal powers for the co-channel
group and re-checks primary-point interference before the call is admitted.
The admitted :class:`SessionRecord` is the only per-session state: the
:class:`Simulation` holds it in the list of its channel index, in admission
order, and the departure event carries it.  Under channel reuse that list
is the co-channel group whose links and powers the power solve reads.
Each provider's :class:`~dsasim.sbac.LivePool`, built once per run, follows
the held sessions as channels are taken and given back, and under dynamic
selection re-scores itself on each take and give, so an arrival's selection
is a max over P cached scores; under fixed allocation the home pool is the
one candidate and is never scored.
A departure leaves the powers of the rest of its co-channel group as they
are: they were solved for the larger group, so every target still holds,
and they relax to the smaller group's minimal powers only at the next
admission on that channel index.
Departures at a given instant are processed before arrivals at the same
instant, the standard loss-system convention.  The run has one clock; the
busy-channel and primary-interference integrals advance with it, clamped
to the horizon so the metrics cover exactly ``[0, horizon]``.  The primary
loads and integrals are float lists, one entry per primary point, updated
elementwise with the IEEE operations numpy would take, minus its call cost.

One run is strictly single-threaded; independent runs can execute
concurrently because topologies and traffic specs are immutable.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import metrics, qos, sbac
from .errors import InvalidTopologyError, NoCandidateError, StateError
from .metrics import MetricsReport
from .sbac import LivePool, SbacConfig
from .topology import NetworkTopology, validate_topology
from .traffic import ArrivalEvent, TrafficSpec, build_event_stream


class Strategy(Enum):
    FIXED = "FIXED"
    DYNAMIC_SBAC = "DYNAMIC_SBAC"


class Outcome(Enum):
    ADMITTED = "ADMITTED"
    BLOCKED_NO_CHANNEL = "BLOCKED_NO_CHANNEL"
    BLOCKED_QOS = "BLOCKED_QOS"
    BLOCKED_INTERFERENCE = "BLOCKED_INTERFERENCE"


@dataclass(frozen=True)
class QosConfig:
    """Admission-time physical-layer checking knobs.

    With ``physical_checks`` off, channel availability alone decides
    admission.  ``channel_reuse`` makes equal channel indexes on different
    providers co-channel, so concurrent sessions there are power-coupled
    and admission exercises the full SINR feasibility machinery.
    """

    physical_checks: bool = False
    channel_reuse: bool = False


@dataclass(slots=True)
class SessionRecord:
    """One session request and what became of it.

    The system is a pure loss system: an admitted session is served from its
    arrival until ``end_time``, so there is no start time apart from
    ``arrival_time`` and no access wait.  Its data rate is the run's
    ``TrafficSpec.requested_rate`` and its distance that of link ``link_id``.
    """

    session_id: int
    arrival_time: float
    end_time: float
    home_provider_id: int
    provider_id: int | None
    channel_id: int | None
    link_id: int
    outcome: Outcome
    power: float = 0.0  # assigned transmit power, watts (0 when blocked)

    @property
    def admitted(self) -> bool:
        return self.outcome is Outcome.ADMITTED


class Simulation:
    """Single deterministic run; see :func:`run_simulation` for the one-call API.

    ``groups`` maps each channel index to the records of the sessions held
    on it, in admission order, and ``busy`` counts them all.  ``clock`` is
    the run's one clock; ``busy_integral`` (channel * seconds) and
    ``primary_integral`` (watt * seconds per primary point, a list) advance
    with it.  ``primary_loads`` (watts per primary point, a list) is the
    held sessions' interference at each point.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        traffic_spec: TrafficSpec,
        strategy: Strategy,
        sbac_config: SbacConfig | None = None,
        qos_config: QosConfig | None = None,
        audit: bool = False,
    ):
        violations = validate_topology(topology)
        if violations:
            raise InvalidTopologyError(violations)
        if len(traffic_spec.arrival_rates) != len(topology.providers):
            raise InvalidTopologyError(
                [
                    f"traffic spec covers {len(traffic_spec.arrival_rates)} providers, "
                    f"topology has {len(topology.providers)}"
                ]
            )

        self.topology = topology
        self.traffic_spec = traffic_spec
        self.strategy = strategy
        self.sbac = sbac_config or SbacConfig()
        self.qos = qos_config or QosConfig()
        self.audit = audit

        if strategy is Strategy.FIXED:
            # the home pool is the only candidate: it is never scored
            self._pools = [LivePool(p) for p in topology.providers]
            self._candidates = [(pool,) for pool in self._pools]
        else:
            self._pools = [LivePool(p, self.sbac) for p in topology.providers]
            self._candidates = [self._pools] * len(self._pools)
        self.records: list[SessionRecord] = []
        self.groups: defaultdict[int, list[SessionRecord]] = defaultdict(list)
        self.busy = 0
        self.clock = 0.0
        self.busy_integral = 0.0
        num_points = len(topology.primary_points)
        self.primary_loads = [0.0] * num_points
        self.primary_integral = [0.0] * num_points
        self._ran = False

        self._g_ss = topology.gains.g_ss
        self._g_ps = topology.gains.g_ps
        # each link's gains to the primary points, for the elementwise updates
        self._g_ps_columns = [tuple(column) for column in self._g_ps.T.tolist()]
        self._tolerance = np.array([p.tolerance for p in topology.primary_points])
        if self.qos.physical_checks:
            # per-link physics as arrays indexed by link id, for the power solve
            self._noise, self._gain, self._sinr_target, self._power_max = qos.link_arrays(
                topology.links, traffic_spec.requested_rate
            )

    # -- event loop ---------------------------------------------------------

    def run(self) -> tuple[list[SessionRecord], MetricsReport]:
        """Process every event once; a Simulation runs at most one time."""
        if self._ran:
            raise StateError("Simulation.run() was already called; build a new Simulation")
        self._ran = True
        # departures: (end_time, session_id, record); session ids rise in
        # admission order, so tuple comparison never reaches the record.  A
        # departure due by the next arrival's time goes first, so departures
        # at time t free capacity before arrivals at time t.
        departures: list[tuple[float, int, SessionRecord]] = []
        for event in build_event_stream(self.traffic_spec):
            while departures and departures[0][0] <= event.time:
                self._depart_next(departures)
            self._advance_clocks(event.time)
            record = self._admit(event)
            self.records.append(record)
            if record.admitted:
                heapq.heappush(departures, (record.end_time, record.session_id, record))
            if self.audit:
                self._audit_state()
        while departures:
            self._depart_next(departures)

        # close the busy/interference integrals out to the horizon (departures
        # beyond it may already have advanced the clock further)
        self._advance_clocks(max(self.traffic_spec.horizon, self.clock))
        return self.records, self._report()

    def _depart_next(self, departures: list[tuple[float, int, SessionRecord]]) -> None:
        """Process the earliest departure in the queue."""
        end_time, _, record = heapq.heappop(departures)
        self._advance_clocks(end_time)
        self._depart(record)
        if self.audit:
            self._audit_state()

    def _audit_state(self) -> None:
        """Run every audit that applies, after each event when ``audit`` is on."""
        self._audit_pools()
        self._audit_primary_loads()
        if self.qos.physical_checks:
            self._audit_qos()

    def _advance_clocks(self, time: float) -> None:
        """Move the clock to ``time``, adding the busy channels and primary
        loads times the elapsed interval clamped to the horizon."""
        if time < self.clock:
            raise StateError(f"clock moved backwards ({self.clock} -> {time})")
        horizon = self.traffic_spec.horizon
        start, end = min(self.clock, horizon), min(time, horizon)
        if end > start:
            elapsed = end - start
            self.busy_integral += self.busy * elapsed
            self.primary_integral = [
                total + load * elapsed
                for total, load in zip(self.primary_integral, self.primary_loads)
            ]
        self.clock = time

    def _depart(self, record: SessionRecord) -> None:
        # the rest of the co-channel group keeps its powers (module docstring)
        group = self.groups[record.channel_id]
        for index, held in enumerate(group):
            if held is record:
                del group[index]
                break
        else:
            raise StateError(f"session {record.session_id} holds no channel (double release?)")
        self.busy -= 1
        self._pools[record.provider_id].give(record.channel_id)
        self.primary_loads = [
            load - gain * record.power
            for load, gain in zip(self.primary_loads, self._g_ps_columns[record.link_id])
        ]

    # -- admission ----------------------------------------------------------

    def _admit(self, event: ArrivalEvent) -> SessionRecord:
        session_id = len(self.records)
        link = self.topology.links[session_id % self.topology.num_links]
        record = SessionRecord(
            session_id=session_id,
            arrival_time=event.time,
            end_time=event.time,
            home_provider_id=event.provider_id,
            provider_id=None,
            channel_id=None,
            link_id=link.id,
            outcome=Outcome.BLOCKED_NO_CHANNEL,
        )

        try:
            provider_id, channel_id, _ = sbac.select_best_channel(
                self._candidates[event.provider_id], self.sbac
            )
        except NoCandidateError:
            return record

        if self.qos.physical_checks:
            outcome = self._physical_admission(channel_id, record)
            if outcome is not Outcome.ADMITTED:
                record.outcome = outcome
                return record
        else:
            record.power = link.power
            self.primary_loads = [
                load + gain * link.power
                for load, gain in zip(self.primary_loads, self._g_ps_columns[link.id])
            ]

        record.outcome = Outcome.ADMITTED
        record.provider_id = provider_id
        record.channel_id = channel_id
        record.end_time = event.time + event.holding_time
        self._pools[provider_id].take(channel_id)
        self.groups[channel_id].append(record)
        self.busy += 1
        return record

    def _physical_admission(self, channel_id: int, record: SessionRecord) -> Outcome:
        """Solve minimal powers for the co-channel group plus the new session.

        Existing group members must keep meeting their own QoS targets under
        the added interference, and the whole system must stay within every
        primary point's tolerance.  On admission the group's records and
        ``record`` get the solved powers and ``primary_loads`` follows them.
        """
        group = self.groups[channel_id] if self.qos.channel_reuse else []
        ids = [member.link_id for member in group] + [record.link_id]
        g_ps = self._g_ps[:, ids]
        group_load = g_ps[:, :-1] @ [member.power for member in group]
        solution = qos.solve_min_powers(
            self._g_ss[np.ix_(ids, ids)],
            self._noise[ids],
            self._gain[ids],
            self._sinr_target[ids],
            self._power_max[ids],
            g_ps,
            self._tolerance - (np.array(self.primary_loads) - group_load),
        )
        if not solution.within_power_caps:
            return Outcome.BLOCKED_QOS
        if not solution.interference_ok:
            return Outcome.BLOCKED_INTERFERENCE
        for member, power in zip(group + [record], solution.powers.tolist()):
            member.power = power
        delta = (g_ps @ solution.powers - group_load).tolist()
        self.primary_loads = [load + change for load, change in zip(self.primary_loads, delta)]
        return Outcome.ADMITTED

    def _audit_pools(self) -> None:
        """Check that every held record names its group's channel index and
        that ``busy`` counts the held records, then rebuild every live pool
        from them; raises StateError on any mismatch (see
        :meth:`LivePool.audit`)."""
        held: list[list[int]] = [[] for _ in self._pools]
        for channel_id, group in self.groups.items():
            for record in group:
                if record.channel_id != channel_id:
                    raise StateError(
                        f"session {record.session_id} is held on channel {channel_id} "
                        f"but records channel {record.channel_id}"
                    )
                held[record.provider_id].append(channel_id)
        count = sum(len(channel_ids) for channel_ids in held)
        if count != self.busy:
            raise StateError(f"busy count {self.busy} differs from the {count} held sessions")
        for pool, channel_ids in zip(self._pools, held):
            pool.audit(channel_ids)

    def _audit_primary_loads(self) -> None:
        """Recompute the primary loads from the held records' powers; raises
        StateError when the running sums drifted by more than 1e-9 of a
        point's tolerance (or of its load, where that is larger)."""
        held = [record for group in self.groups.values() for record in group]
        expected = self._g_ps[:, [r.link_id for r in held]] @ np.array([r.power for r in held])
        if np.any(
            np.abs(np.array(self.primary_loads) - expected)
            > 1e-9 * np.maximum(self._tolerance, expected)
        ):
            raise StateError(
                f"primary loads {self.primary_loads} drifted from the held "
                f"sessions' {expected.tolist()}"
            )

    def _audit_qos(self) -> None:
        """Recompute every held session's SINR at the recorded powers with the
        independent :func:`qos.link_sinr`, on the held links' gains with the
        gains between different co-channel groups zeroed; raises StateError
        if any session misses its target."""
        held = [(channel_id, record) for channel_id, group in self.groups.items()
                for record in group]
        ids = [record.link_id for _, record in held]
        if self.qos.channel_reuse:
            channels = np.array([channel_id for channel_id, _ in held])
            co_channel = channels[:, None] == channels[None, :]
        else:
            co_channel = np.eye(len(held), dtype=bool)
        sinr = qos.link_sinr(
            self._g_ss[np.ix_(ids, ids)] * co_channel,
            self._noise[ids],
            self._gain[ids],
            np.array([record.power for _, record in held]),
        )
        missed = ~qos.qos_met(sinr, self._sinr_target[ids])
        if np.any(missed):
            raise StateError(
                f"sessions {[held[i][1].session_id for i in np.flatnonzero(missed)]} miss "
                "their SINR targets at their co-channel group's powers"
            )

    # -- reporting ----------------------------------------------------------

    def _report(self) -> MetricsReport:
        horizon = self.traffic_spec.horizon
        admitted = [r for r in self.records if r.admitted]
        speed = self.topology.propagation_speed

        if admitted:
            distances = [link.distance for link in self.topology.links]
            delays = [metrics.propagation_delay(distances[r.link_id], speed) for r in admitted]
            rtts = [metrics.rtt(distances[r.link_id], speed) for r in admitted]
            mean_delay = sum(delays) / len(delays)
            mean_rtt = sum(rtts) / len(rtts)
        else:
            mean_delay = 0.0
            mean_rtt = 0.0

        if self.primary_integral:
            per_point = np.array(self.primary_integral) / horizon
            mean_interference = float(np.mean(per_point))
        else:
            per_point = np.zeros(0)
            mean_interference = 0.0

        outcomes = {outcome: 0 for outcome in Outcome}
        for record in self.records:
            outcomes[record.outcome] += 1
        arrivals = len(self.records)
        blocked = arrivals - outcomes[Outcome.ADMITTED]

        return MetricsReport(
            mean_propagation_delay=mean_delay,
            mean_rtt=mean_rtt,
            throughput=metrics.throughput(
                self.records, self.traffic_spec.requested_rate, horizon
            ),
            mean_primary_interference=mean_interference,
            spectral_efficiency=metrics.spectral_efficiency(
                self.busy_integral, self.topology.total_channels, horizon
            ),
            blocking_probability=blocked / arrivals if arrivals else 0.0,
            arrivals=arrivals,
            admitted=outcomes[Outcome.ADMITTED],
            blocked_no_channel=outcomes[Outcome.BLOCKED_NO_CHANNEL],
            blocked_qos=outcomes[Outcome.BLOCKED_QOS],
            blocked_interference=outcomes[Outcome.BLOCKED_INTERFERENCE],
            metadata={
                "strategy": self.strategy.value,
                "seed": self.traffic_spec.seed,
                "horizon": horizon,
                "per_point_interference_w": per_point.tolist(),
            },
        )


def run_simulation(
    topology: NetworkTopology,
    traffic_spec: TrafficSpec,
    strategy: Strategy,
    sbac_config: SbacConfig | None = None,
    qos_config: QosConfig | None = None,
    audit: bool = False,
) -> tuple[list[SessionRecord], MetricsReport]:
    """Run one deterministic simulation and compute its metric suite.

    Identical arguments (including the traffic seed) produce an identical
    record sequence and report.  Raises InvalidTopologyError before any
    event is processed if the topology fails validation.
    """
    sim = Simulation(
        topology,
        traffic_spec,
        strategy,
        sbac_config=sbac_config,
        qos_config=qos_config,
        audit=audit,
    )
    return sim.run()
