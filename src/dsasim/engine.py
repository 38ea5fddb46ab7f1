"""Deterministic discrete-event loop over arrivals and departures.

Arrivals are ``(time, provider_id, holding_time)`` tuples drawn lazily from
:func:`~dsasim.traffic.build_event_stream`, which holds a block of at most
16 log-uniforms and one pending arrival per provider, and the event queue
is a heap of the held sessions' departures keyed ``(end_time, session_id)``.

Every arrival is offered the candidate pools its strategy allows (home
provider only under fixed allocation, all providers under dynamic
selection), the best-available-channel rule picks a free channel, and an
optional physical-layer stage finds minimal powers for the co-channel group
plus the call and re-checks primary-point interference before the call is
admitted.
The admitted :class:`SessionRecord` is the only per-session state: the
:class:`Simulation` holds it in the list of its channel index, in admission
order, and the departure event carries it.  Under channel reuse that list
is the co-channel group.  An admission solves the group plus the call
afresh (:func:`dsasim.qos.group_powers`: pure Python, one straight-line
elimination per group size, compiled on the process's first group of that
size and kept for its life), so no state but the records follows a group,
a departure does no power work and neither path makes a numpy call.
The report is streamed: each blocked arrival adds to a count per cause, and
each admission adds its link's precomputed delay and its bits to running
totals, so a run's memory follows its held sessions, not its arrivals.
Every arrival's record is kept only with ``keep_records``.
Each provider's :class:`~dsasim.sbac.LivePool`, built once per run, follows
the held sessions as channels are taken and given back, and under dynamic
selection re-scores itself on each take and give from the utility's
constants, folded in when it was built, so an arrival's selection is a max
over P cached scores; under fixed allocation the home pool is the one
candidate and is never scored.  What an admission reads of the run's inputs
(the links, the horizon, the requested rate, whether the physical stage
runs) is bound once when the :class:`Simulation` is built.
A departure leaves the powers of the rest of its co-channel group as they
are: they were solved for the larger group, so every target still holds,
and they relax to the smaller group's minimal powers only at the next
admission on that channel index.
Departures at a given instant are processed before arrivals at the same
instant, the standard loss-system convention.  The run has one clock; the
busy-channel and primary-interference integrals advance with it, clamped
to the horizon so the metrics cover exactly ``[0, horizon]``.  The primary
loads and integrals are float lists, one entry per primary point, updated
in place, entry by entry, with the IEEE operations numpy would take, so no
event builds a new list.

One run is strictly single-threaded; independent runs can execute
concurrently because topologies and traffic specs are immutable.  Each
input checked itself when it was built (:mod:`dsasim.topology`), so a run
checks only that the traffic and the topology agree on the providers.
"""
from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from operator import mul

import numpy as np

from . import qos, sbac
from .errors import StateError
from .metrics import MetricsReport
from .sbac import LivePool, SbacConfig
from .topology import NetworkTopology
from .traffic import TrafficSpec, build_event_stream


class Strategy(Enum):
    FIXED = "FIXED"
    DYNAMIC_SBAC = "DYNAMIC_SBAC"


class Outcome(Enum):
    ADMITTED = "ADMITTED"
    BLOCKED_NO_CHANNEL = "BLOCKED_NO_CHANNEL"
    BLOCKED_QOS = "BLOCKED_QOS"
    BLOCKED_INTERFERENCE = "BLOCKED_INTERFERENCE"


ADMITTED = Outcome.ADMITTED


@dataclass(frozen=True)
class QosConfig:
    """Admission-time physical-layer checking knobs.

    With ``physical_checks`` off, channel availability alone decides
    admission.  ``channel_reuse`` makes equal channel indexes on different
    providers co-channel, so concurrent sessions there are power-coupled
    and admission exercises the full SINR feasibility machinery.  Only the
    physical stage reads the groups, so reuse without physical checks is a
    ValueError, as is a flag that is not a bool.
    """

    physical_checks: bool = False
    channel_reuse: bool = False

    def __post_init__(self):
        for name in ("physical_checks", "channel_reuse"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean")
        if self.channel_reuse and not self.physical_checks:
            raise ValueError("channel_reuse needs physical_checks")


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

    The report's sums are streamed: ``arrivals`` counts the arrivals and
    numbers their sessions, ``blocks`` counts the blocked ones per cause,
    ``delay_total`` adds up the admitted sessions' propagation delays in
    admission order, and ``bits`` their served bits within the horizon.
    ``records`` is every arrival's record, in arrival order, with
    ``keep_records``, and None without.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        traffic_spec: TrafficSpec,
        strategy: Strategy,
        sbac_config: SbacConfig | None = None,
        qos_config: QosConfig | None = None,
        audit: bool = False,
        keep_records: bool = False,
    ):
        if len(traffic_spec.arrival_rates) != len(topology.providers):
            raise ValueError(
                f"traffic_spec covers {len(traffic_spec.arrival_rates)} providers, "
                f"topology has {len(topology.providers)}"
            )
        if not isinstance(strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, got {strategy!r}")

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
        self.records: list[SessionRecord] | None = [] if keep_records else None
        self.arrivals = 0
        self.blocks = {outcome: 0 for outcome in Outcome if outcome is not ADMITTED}
        self.delay_total = 0.0
        self.bits = 0.0
        self.groups: defaultdict[int, list[SessionRecord]] = defaultdict(list)
        self.busy = 0
        self.clock = 0.0
        self.busy_integral = 0.0
        num_points = len(topology.primary_points)
        self.primary_loads = [0.0] * num_points
        self.primary_integral = [0.0] * num_points
        self._ran = False
        # what every admission reads, bound once per run
        self._links = topology.links
        self._horizon = traffic_spec.horizon
        self._physical = self.qos.physical_checks
        self._requested_rate = traffic_spec.requested_rate

        speed = topology.propagation_speed
        self._link_delays = [link.distance / speed for link in topology.links]
        self._g_ss = topology.gains.g_ss
        self._g_ps = topology.gains.g_ps
        # each primary point's gains from the links, by link id
        self._g_ps_rows = [array("d", row) for row in self._g_ps.tolist()]
        self._tolerance = [p.tolerance for p in topology.primary_points]
        if self._physical:
            # per-link physics as arrays indexed by link id, for the audits
            self._noise, self._gain, self._sinr_target, power_max = qos.link_arrays(
                topology.links, traffic_spec.requested_rate
            )
            # and the admission solve's: F[i][j] = scale[i] * g_ss[i][j]
            # (j != i) is read from a flat view of g_ss, never stored
            scale = qos.coupling_scale(self._g_ss, self._gain, self._sinr_target)
            self._scale = array("d", scale.tolist())
            self._u = array("d", (scale * self._noise).tolist())
            self._cap = array("d", power_max.tolist())
            self._g_ss_flat = memoryview(np.ascontiguousarray(self._g_ss).reshape(-1))

    # -- event loop ---------------------------------------------------------

    def run(self) -> tuple[list[SessionRecord] | None, MetricsReport]:
        """Process every event once and return ``(records, report)``, the
        records None without ``keep_records``; a Simulation runs at most
        one time."""
        if self._ran:
            raise StateError("Simulation.run() was already called; build a new Simulation")
        self._ran = True
        # departures: (end_time, session_id, record); session ids rise in
        # admission order, so tuple comparison never reaches the record.  A
        # departure due by the next arrival's time goes first, so departures
        # at time t free capacity before arrivals at time t.
        departures: list[tuple[float, int, SessionRecord]] = []
        # the per-event calls, bound once (subclasses still override them)
        push, admit, depart_next = heappush, self._admit, self._depart_next
        advance_clocks, records, audit = self._advance_clocks, self.records, self.audit
        for event in build_event_stream(self.traffic_spec):
            time = event[0]
            while departures and departures[0][0] <= time:
                depart_next(departures)
            advance_clocks(time)
            record = admit(event)
            if records is not None:
                records.append(record)
            if record.outcome is ADMITTED:
                push(departures, (record.end_time, record.session_id, record))
            if audit:
                self._audit_state(departures)
        while departures:
            depart_next(departures)

        # close the busy/interference integrals out to the horizon (departures
        # beyond it may already have advanced the clock further)
        self._advance_clocks(max(self.traffic_spec.horizon, self.clock))
        return self.records, self._report()

    def _depart_next(self, departures: list[tuple[float, int, SessionRecord]]) -> None:
        """Process the earliest departure in the queue."""
        end_time, _, record = heappop(departures)
        self._advance_clocks(end_time)
        self._depart(record)
        if self.audit:
            self._audit_state(departures)

    def _audit_state(self, departures: list[tuple[float, int, SessionRecord]]) -> None:
        """Run every audit that applies, after each event when ``audit`` is on."""
        self._audit_pools()
        self._audit_departures(departures)
        self._audit_primary_loads()
        if self.qos.physical_checks:
            self._audit_qos()

    def _advance_clocks(self, time: float) -> None:
        """Move the clock to ``time``, adding the busy channels and primary
        loads times the elapsed interval clamped to the horizon."""
        if time < self.clock:
            raise StateError(f"clock moved backwards ({self.clock} -> {time})")
        # clamped to the horizon: a clock already past it has nothing to add
        horizon = self._horizon
        end = time if time < horizon else horizon
        if end > self.clock:
            elapsed = end - self.clock
            self.busy_integral += self.busy * elapsed
            integral = self.primary_integral
            for j, load in enumerate(self.primary_loads):
                integral[j] += load * elapsed
        self.clock = time

    def _depart(self, record: SessionRecord) -> None:
        # the rest of the co-channel group keeps its powers (module docstring)
        channel_id = record.channel_id
        group = self.groups[channel_id]
        for index, held in enumerate(group):
            if held is record:
                del group[index]
                break
        else:
            raise StateError(f"session {record.session_id} holds no channel (double release?)")
        self.busy -= 1
        self._pools[record.provider_id].give(channel_id)
        link_id, power, loads = record.link_id, record.power, self.primary_loads
        for j, row in enumerate(self._g_ps_rows):
            loads[j] -= row[link_id] * power

    # -- admission ----------------------------------------------------------

    def _admit(self, event: tuple[float, int, float]) -> SessionRecord:
        time, home_provider_id, holding_time = event
        session_id = self.arrivals
        self.arrivals = session_id + 1
        link = self._links[session_id % len(self._links)]
        # session id, arrival and end time, home provider, provider, channel,
        # link and outcome, in field order
        record = SessionRecord(session_id, time, time, home_provider_id, None, None, link.id,
                               Outcome.BLOCKED_NO_CHANNEL)

        choice = sbac.select_best_channel(self._candidates[home_provider_id])
        if choice is None:
            outcome = Outcome.BLOCKED_NO_CHANNEL
        elif self._physical:
            outcome = self._physical_admission(choice[1], record)
        else:
            outcome = ADMITTED
            record.power = power = link.power
            link_id, loads = link.id, self.primary_loads
            for j, row in enumerate(self._g_ps_rows):
                loads[j] += row[link_id] * power
        if outcome is not ADMITTED:  # only blocks hash their outcome
            record.outcome = outcome
            self.blocks[outcome] += 1
            return record

        provider_id, channel_id, _ = choice
        record.outcome = ADMITTED
        record.provider_id = provider_id
        record.channel_id = channel_id
        record.end_time = end_time = time + holding_time
        self._pools[provider_id].take(channel_id)
        self.groups[channel_id].append(record)
        self.busy += 1
        self.delay_total += self._link_delays[link.id]
        # an admitted session arrived before the horizon: active >= 0
        active = (end_time if end_time < self._horizon else self._horizon) - time
        self.bits += self._requested_rate * active
        return record

    def _physical_admission(self, channel_id: int, record: SessionRecord) -> Outcome:
        """Minimal powers for the co-channel group plus the new session, by
        one fresh :func:`qos.group_powers` solve of the grown group.

        Existing group members must keep meeting their own QoS targets under
        the added interference, and the whole system must stay within every
        primary point's tolerance.  Without reuse the group is the session
        alone.  A pivot that is not positive (``rho(F) >= 1``), a power that
        is not positive and finite, or one over its cap is a QoS block; then
        a budget exceeded is an interference block.  On admission the
        group's records and ``record`` get the new minimal powers and
        ``primary_loads`` follows them.
        """
        group = self.groups[channel_id] if self.qos.channel_reuse else ()
        ids = [member.link_id for member in group]
        ids.append(record.link_id)
        powers = qos.group_powers(ids, self._scale, self._u, self._g_ss_flat)
        if powers is None:  # rho(F) >= 1 for the grown group: no finite powers
            return Outcome.BLOCKED_QOS
        cap = self._cap
        for i, p in zip(ids, powers):
            if not (0.0 < p < math.inf and p <= cap[i]):
                return Outcome.BLOCKED_QOS

        held = [member.power for member in group]
        changes = []
        points = zip(self._g_ps_rows, self._tolerance, self.primary_loads)
        for gains_row, tolerance, load in points:
            gains = [gains_row[i] for i in ids]
            before = math.fsum(map(mul, gains, held))  # the n members' loads
            after = math.fsum(map(mul, gains, powers))
            if not after <= tolerance - (load - before):
                return Outcome.BLOCKED_INTERFERENCE
            changes.append(after - before)

        for member, p in zip(group, powers):
            member.power = p
        record.power = powers[-1]
        loads = self.primary_loads
        for j, change in enumerate(changes):
            loads[j] += change
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

    def _audit_departures(self, departures: list[tuple[float, int, SessionRecord]]) -> None:
        """Check that the departure heap holds exactly one entry per held
        record, keyed by its end time and session id; raises StateError
        otherwise."""
        held = sorted(
            (record.end_time, record.session_id, id(record))
            for group in self.groups.values()
            for record in group
        )
        queued = sorted((end_time, session_id, id(record))
                        for end_time, session_id, record in departures)
        if queued != held:
            raise StateError(
                f"the departure heap holds {len(departures)} entries for "
                f"{len(held)} held sessions, or keys that differ from theirs"
            )

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
        blocks = self.blocks
        arrivals = self.arrivals
        blocked = sum(blocks.values())
        admitted = arrivals - blocked
        mean_delay = self.delay_total / admitted if admitted else 0.0

        if self.primary_integral:
            per_point = np.array(self.primary_integral) / horizon
            mean_interference = float(np.mean(per_point))
        else:
            per_point = np.zeros(0)
            mean_interference = 0.0

        return MetricsReport(
            mean_propagation_delay=mean_delay,
            # doubling is exact and commutes with every rounding of the mean
            mean_rtt=2.0 * mean_delay,
            throughput=self.bits / horizon,
            mean_primary_interference=mean_interference,
            spectral_efficiency=(self.busy_integral / horizon) / self.topology.total_channels,
            blocking_probability=blocked / arrivals if arrivals else 0.0,
            arrivals=arrivals,
            admitted=admitted,
            blocked_no_channel=blocks[Outcome.BLOCKED_NO_CHANNEL],
            blocked_qos=blocks[Outcome.BLOCKED_QOS],
            blocked_interference=blocks[Outcome.BLOCKED_INTERFERENCE],
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
    keep_records: bool = False,
) -> tuple[list[SessionRecord] | None, MetricsReport]:
    """Run one deterministic simulation and compute its metric suite.

    Returns ``(records, report)``: ``records`` lists every arrival's
    :class:`SessionRecord` in arrival order with ``keep_records``, and is
    None without it, so that the run's memory follows its held sessions.
    Identical arguments (including the traffic seed) produce an identical
    report, and record sequence when kept.  Raises ValueError before any
    event is processed if the traffic spec and the topology count different
    providers or ``strategy`` is not a :class:`Strategy`.
    """
    sim = Simulation(
        topology,
        traffic_spec,
        strategy,
        sbac_config=sbac_config,
        qos_config=qos_config,
        audit=audit,
        keep_records=keep_records,
    )
    return sim.run()
