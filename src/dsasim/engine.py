"""Deterministic discrete-event loop over arrivals and departures.

Arrivals are ``(time, provider_id, holding_time)`` tuples drawn lazily from
:func:`~dsasim.traffic.build_event_stream`, which holds a block of at most
32 log-uniforms and one pending arrival per provider.  :meth:`Simulation.run`
is the one event loop: it admits each arrival and departs each session
inline, and its heap of departures, keyed ``(end_time, session_id)``, is
the one collection of the held sessions.

Every arrival is offered the candidate pools its strategy allows (home
provider only under fixed allocation, all providers under dynamic
selection), the best-available-channel rule picks a free channel, and an
optional physical-layer stage finds minimal powers for the co-channel group
plus the call and re-checks primary-point interference before the call is
admitted.
A held session's only state is its departure entry, ``(end_time,
session_id, provider_id, channel_id, link_id, record)``.  Its
:class:`SessionRecord` is built only under the physical stage, whose later
admissions rewrite a held member's power, or with ``keep_records``, and
``record`` is None elsewhere.  Only under channel reuse, where the physical
stage reads them, does the :class:`Simulation` also list the records held
on each channel index, in admission order: the co-channel groups.  An
admission solves the group plus the call afresh, in pure Python, by one
straight-line function per grown-group size (:func:`_admission`), compiled
on the process's first group of that size and kept for its life.  It reads
the members' links and powers, solves ``(I - F) P = u`` (:mod:`dsasim.qos`)
on the topology's gain rows, kept as Python floats once per topology
(:class:`~dsasim.topology.GainMatrices`), checks the caps and the primary
budgets, and only then writes the powers and loads back.  So a departure
does no power work and neither path makes a numpy call.  It is the one
power solve: :func:`group_powers` admits a group's last link to the others.
The report is streamed: each blocked arrival adds to a count per cause (an
``Enum`` member hashes in Python, so the cause is chosen by identity), and
each admission adds its link's precomputed delay and its bits to running
totals, so a run's memory follows its held sessions, not its arrivals.  A
blocked arrival's record is built only with ``keep_records``.
Under dynamic selection each provider's :class:`~dsasim.sbac.LivePool`,
built once per run, follows the held sessions as channels are taken and
given back, and re-scores itself on each take and give into its provider
id's slot of the run's one score list, so an arrival's selection is one
``max`` over that list.  Under fixed allocation the home provider is the
one candidate and nothing is scored: the run keeps each provider's free
channel ids as a ``heapq`` heap, so an arrival takes the lowest with one
``heappop`` and a departure gives it back with one ``heappush``.
``heappush(heap, channel_id)`` has the signature of ``LivePool.give(pool,
channel_id)``, so a departure makes one call under either strategy, with
no branch.
A departure leaves the powers of the rest of its co-channel group as they
are: they were solved for the larger group, so every target still holds,
and they relax to the smaller group's minimal powers only at the next
admission on that channel index.
Departures at a given instant are processed before arrivals at the same
instant, the standard loss-system convention.  The loop owns the one clock
and moves it, and the busy-channel and primary-interference integrals with
it, up to the last event, at the horizon: the run stops there, the sessions
that end later stay held, and only their served time is clamped.
The primary loads and integrals are float lists, one entry per primary
point, updated in place with the IEEE operations numpy would take, from the
topology's rows of primary-point gains; a departure advances each point's
integral in the loop that unloads it.
The report's counters, the clock and the busy integral are the loop's
locals until it ends, and so are the tables only it reads (link delays,
load shares).  Two per-event methods remain, for the physical stage and the
audits: :meth:`Simulation._physical_admission` and
:meth:`Simulation._audit_state`.  Both see the live groups, primary loads
and pools, and the audit gets the busy count as its argument.

One run is strictly single-threaded; independent runs can execute
concurrently because topologies and traffic specs are immutable.  Each
input checked itself when it was built (:mod:`dsasim.topology`), so a run
checks only that the traffic and the topology agree on the providers.
"""
from __future__ import annotations

import functools
import math
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import chain

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
BLOCKED_NO_CHANNEL = Outcome.BLOCKED_NO_CHANNEL
BLOCKED_QOS = Outcome.BLOCKED_QOS


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

    ``busy`` counts the held sessions, whose entries the departure heap of
    :meth:`run` holds.  Under channel reuse alone, ``groups`` maps each
    channel index to the records held on it, in admission order; it stays
    empty otherwise.  ``clock`` is the run's one clock, the horizon once it
    ends; ``busy_integral`` (channel * seconds) and ``primary_integral``
    (watt * seconds per primary point, a list) advance with it.
    ``primary_loads`` (watts per primary point, a list) is the held
    sessions' interference at each point.

    The report's sums are streamed: ``arrivals`` counts the arrivals and
    numbers their sessions, ``blocked_no_channel``, ``blocked_qos`` and
    ``blocked_interference`` count the blocked ones per cause,
    ``delay_total`` adds up the admitted sessions' propagation delays in
    admission order, and ``bits`` their served bits within the horizon.
    ``records`` is every arrival's record, in arrival order, with
    ``keep_records``, and None without.

    Under dynamic selection ``_pools`` lists each provider's
    :class:`~dsasim.sbac.LivePool` and ``_scores`` their shared score list;
    under fixed allocation ``_free_ids`` lists each provider's free channel
    ids as a heap, which the run pops and pushes.  The other strategy's are
    None.

    ``busy``, the clock, the busy integral and the report's sums are
    :meth:`run`'s locals until it ends, when it sets them here once; a
    built Simulation has none of them before.  Two per-event methods, which
    a subclass may override, see the live ``groups``, ``primary_loads``,
    pools and heaps: :meth:`_physical_admission` for each arrival that
    reaches the physical stage and, with ``audit``, :meth:`_audit_state`
    after each event, which gets ``busy`` as its argument.

    The attributes are slots: a run holds no instance dict, whose size
    would jump once its key count passed the interpreter's shared-key limit.
    """

    __slots__ = (
        "topology", "traffic_spec", "strategy", "sbac", "qos", "audit",
        "_pools", "_scores", "_free_ids", "records", "arrivals",
        "blocked_no_channel", "blocked_qos", "blocked_interference", "delay_total", "bits",
        "groups", "busy", "clock", "busy_integral", "primary_loads", "primary_integral",
        "_ran", "_g_ps_rows", "_tolerance",
        # the physical stage's, bound only when it runs
        "_noise", "_gain", "_sinr_target", "_scale", "_u", "_cap", "_g_ss_rows",
    )

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
        if not isinstance(sbac_config, (SbacConfig, type(None))):
            raise ValueError(f"sbac_config must be an SbacConfig or None, got {sbac_config!r}")
        if not isinstance(qos_config, (QosConfig, type(None))):
            raise ValueError(f"qos_config must be a QosConfig or None, got {qos_config!r}")

        self.topology = topology
        self.traffic_spec = traffic_spec
        self.strategy = strategy
        self.sbac = sbac_config or SbacConfig()
        self.qos = qos_config or QosConfig()
        self.audit = audit

        self._pools = self._scores = self._free_ids = None
        if strategy is Strategy.FIXED:
            # the home provider is the only candidate: its lowest free id
            # wins, and a sorted list is a heap
            self._free_ids = [sorted(ch.id for ch in p.channels) for p in topology.providers]
        else:
            # every pool keeps its score in its provider id's slot of one list
            self._scores = []
            self._pools = [LivePool(p, self.sbac, self._scores) for p in topology.providers]
        self.records: list[SessionRecord] | None = [] if keep_records else None
        self.groups: defaultdict[int, list[SessionRecord]] = defaultdict(list)
        num_points = len(topology.primary_points)
        self.primary_loads = [0.0] * num_points
        self.primary_integral = [0.0] * num_points
        self._ran = False
        gains = topology.gains
        # each primary point's gains from the links, by link id: the
        # topology's rows of Python floats
        self._g_ps_rows = gains.g_ps_rows
        self._tolerance = [p.tolerance for p in topology.primary_points]
        if self.qos.physical_checks:
            # per-link physics as arrays indexed by link id, for the audits
            self._noise, self._gain, self._sinr_target, power_max = qos.link_arrays(
                topology.links, traffic_spec.requested_rate
            )
            # and the admission solve's, as Python floats: F[i][j] =
            # scale[i] * g_ss[i][j] (j != i) is read from the topology's
            # rows, never stored
            scale = qos.coupling_scale(gains.g_ss, self._gain, self._sinr_target)
            self._scale = scale.tolist()
            self._u = (scale * self._noise).tolist()
            self._cap = power_max.tolist()
            self._g_ss_rows = gains.g_ss_rows

    # -- event loop ---------------------------------------------------------

    def run(self) -> tuple[list[SessionRecord] | None, MetricsReport]:
        """Process every event up to the horizon, where the run stops with the
        sessions that end later held, and return ``(records, report)``, the
        records None without ``keep_records``; a Simulation runs only once."""
        if self._ran:
            raise StateError("Simulation.run() was already called; build a new Simulation")
        self._ran = True
        # departures: one entry per held session (module docstring); session
        # ids rise in admission order, so tuple comparison never passes the
        # id.  A departure due by the next arrival's time goes first, so
        # departures at time t free capacity before arrivals at time t.
        departures: list[tuple] = []
        push, pop = heappush, heappop
        # looked up per run, not at import, so that a caller may replace either
        select, stream = sbac.select_best_channel, build_event_stream(self.traffic_spec)
        pools, scores, free_ids = self._pools, self._scores, self._free_ids
        fixed = free_ids is not None
        # a departure gives its channel back to its provider's heap of free
        # ids or pool by one call of one signature, give(owner, channel_id)
        give, owners = (push, free_ids) if fixed else (LivePool.give, pools)
        links, speed = self.topology.links, self.topology.propagation_speed
        link_delays = [link.distance / speed for link in links]
        point_rows = tuple(enumerate(self._g_ps_rows))  # no enumerate per event
        num_links, horizon = len(links), self.traffic_spec.horizon
        records, audit, rate = self.records, self.audit, self.traffic_spec.requested_rate
        physical, reuse, groups = self.qos.physical_checks, self.qos.channel_reuse, self.groups
        loads, integral = self.primary_loads, self.primary_integral
        points = range(len(loads))
        # without the physical stage a session's power is its link's: each
        # link's share of each point's load, added and taken back as it is
        shares = None if physical else [
            [(j, row[link.id] * link.power) for j, row in point_rows] for link in links]
        # the counters, the clock and the busy integral are the run's until
        # it ends (class docstring).  The clock moves before each event, the
        # integrals by the busy channels and loads times the elapsed time;
        # the last event, at the horizon, closes them and ends the run
        busy = arrivals = blocked_no_channel = blocked_qos = blocked_interference = 0
        clock = busy_integral = delay_total = bits = 0.0
        last = (horizon,)
        for event in chain(stream, (last,)):
            time = event[0]
            while departures and departures[0][0] <= time:
                end_time, session_id, provider_id, channel_id, link_id, record = pop(departures)
                if end_time < clock:
                    raise StateError(f"clock moved backwards ({clock} -> {end_time})")
                # the integrals advance even by 0.0 elapsed, each point's in
                # the loop below that unloads it, and no bit moves: a finite
                # load times 0.0 is +-0.0, which leaves an integral as it is
                # (it starts at +0.0, so is never -0.0); busy * 0.0 is +0.0
                elapsed = end_time - clock
                busy_integral += busy * elapsed
                clock = end_time
                # the rest of the co-channel group keeps its powers (module docstring)
                if reuse:
                    group = groups[channel_id]
                    for index, held in enumerate(group):
                        if held is record:
                            del group[index]
                            break
                    else:
                        raise StateError(
                            f"session {session_id} holds no channel (double release?)")
                busy -= 1
                give(owners[provider_id], channel_id)
                if physical:
                    power = record.power
                    for j, row in point_rows:
                        integral[j] += loads[j] * elapsed
                        loads[j] -= row[link_id] * power
                else:
                    for j, share in shares[link_id]:
                        integral[j] += loads[j] * elapsed
                        loads[j] -= share
                if audit:
                    self._audit_state(departures, busy)
            if time < clock:  # at the last event, the clock is the last arrival's time
                raise StateError(f"clock moved backwards ({clock} -> {time})" if event is not last
                                 else f"an arrival at {clock} is past the horizon {horizon}")
            elapsed = time - clock
            busy_integral += busy * elapsed
            for j in points:
                integral[j] += loads[j] * elapsed
            if event is last:
                break
            clock = time
            _, home_provider_id, holding_time = event
            session_id = arrivals
            arrivals += 1
            link_id = session_id % num_links  # a link's id is its position
            if fixed:  # the home heap, empty when no channel is free
                choice = free = free_ids[home_provider_id]
            else:
                choice = select(pools, scores)
            if not choice:
                blocked_no_channel += 1
                if records is not None:
                    # session id, arrival and end time, home provider,
                    # provider, channel, link and outcome, in field order
                    records.append(SessionRecord(session_id, time, time, home_provider_id, None,
                                                 None, link_id, BLOCKED_NO_CHANNEL))
            else:
                if fixed:
                    provider_id, channel_id = home_provider_id, free[0]
                else:
                    provider_id, channel_id, _ = choice
                end_time = time + holding_time
                if physical:
                    # built admitted: the generated admission writes its
                    # power, and nothing on a block
                    record = SessionRecord(session_id, time, end_time, home_provider_id,
                                           provider_id, channel_id, link_id, ADMITTED,
                                           links[link_id].power)
                    outcome = self._physical_admission(channel_id, record)
                else:
                    outcome = ADMITTED
                    for j, share in shares[link_id]:
                        loads[j] += share
                    record = None if records is None else SessionRecord(
                        session_id, time, end_time, home_provider_id, provider_id, channel_id,
                        link_id, ADMITTED, links[link_id].power)
                if outcome is ADMITTED:
                    if fixed:
                        pop(free)
                    else:
                        pools[provider_id].take(channel_id)
                    if reuse:
                        groups[channel_id].append(record)
                    busy += 1
                    delay_total += link_delays[link_id]
                    # an admitted session arrived before the horizon: active >= 0
                    active = (end_time if end_time < horizon else horizon) - time
                    bits += rate * active
                    push(departures, (end_time, session_id, provider_id, channel_id, link_id,
                                      record))
                else:  # counted by identity: Enum hashes in Python
                    record.outcome, record.power, record.end_time = outcome, 0.0, time
                    record.provider_id = record.channel_id = None
                    if outcome is BLOCKED_QOS:
                        blocked_qos += 1
                    else:
                        blocked_interference += 1
                if records is not None:
                    records.append(record)
            if audit:
                self._audit_state(departures, busy)
        self.busy, self.busy_integral, self.arrivals = busy, busy_integral, arrivals
        self.blocked_no_channel, self.blocked_qos = blocked_no_channel, blocked_qos
        self.blocked_interference, self.delay_total, self.bits, self.clock = (
            blocked_interference, delay_total, bits, horizon)
        return self.records, self._report()

    def _audit_state(self, departures: list[tuple], busy: int) -> None:
        """Run every audit that applies, after each event when ``audit`` is
        on; ``busy`` is the run's count of held sessions."""
        self._audit_departures(departures)
        self._audit_pools(departures, busy)
        self._audit_primary_loads(departures)
        if self.qos.physical_checks:
            self._audit_qos(departures)

    # -- admission ----------------------------------------------------------

    def _physical_admission(self, channel_id: int, record: SessionRecord) -> Outcome:
        """Minimal powers for the co-channel group plus the new session, by
        the generated admission for the grown group's size
        (:func:`_admission`); without reuse the group is the session alone.
        """
        group = self.groups[channel_id] if self.qos.channel_reuse else ()
        return _admission(len(group) + 1)(
            group, record, self._scale, self._u, self._g_ss_rows, self._cap,
            self._g_ps_rows, self._tolerance, self.primary_loads,
        )

    def _audit_departures(self, departures: list[tuple]) -> None:
        """Check that, under reuse, the co-channel groups hold exactly the
        heap's records, each under its own channel index, and that every
        heap entry that holds a record agrees with it on the session id,
        end time, provider, channel and link; raises StateError otherwise."""
        if self.qos.channel_reuse:
            held = []
            for channel_id, group in self.groups.items():
                for record in group:
                    if record.channel_id != channel_id:
                        raise StateError(
                            f"session {record.session_id} is held on channel {channel_id} "
                            f"but records channel {record.channel_id}"
                        )
                    held.append(id(record))
            if sorted(held) != sorted(id(entry[-1]) for entry in departures):
                raise StateError(
                    f"the departure heap holds {len(departures)} entries for "
                    f"{len(held)} held sessions, or records other than theirs"
                )
        for end_time, session_id, provider_id, channel_id, link_id, record in departures:
            if record is not None and (end_time, session_id, provider_id, channel_id, link_id) != (
                    record.end_time, record.session_id, record.provider_id, record.channel_id,
                    record.link_id):
                raise StateError(f"session {session_id}'s departure entry differs from its record")

    def _audit_pools(self, departures: list[tuple], busy: int) -> None:
        """Rebuild every live pool (see :meth:`LivePool.audit`), or under
        fixed allocation every heap of free ids, from the departure
        entries' providers and channels, then check that ``busy`` counts
        the entries; raises StateError on any mismatch.  A heap holds each
        free id once, so a double release shows here, as an id pushed twice."""
        providers = self.topology.providers
        held: list[list[int]] = [[] for _ in providers]
        for _, _, provider_id, channel_id, _, _ in departures:
            held[provider_id].append(channel_id)
        if self._free_ids is None:
            for pool, channel_ids in zip(self._pools, held):
                pool.audit(channel_ids)
        else:  # each heap in heap order, holding its provider's ids less the held ones
            for provider, heap, channel_ids in zip(providers, self._free_ids, held):
                if any(heap[(i - 1) // 2] > heap[i] for i in range(1, len(heap))):
                    raise StateError(
                        f"provider {provider.id} free-id heap {heap} is out of heap order")
                if sorted(heap + channel_ids) != sorted(ch.id for ch in provider.channels):
                    raise StateError(
                        f"provider {provider.id} free-id heap {heap} differs from its channel "
                        f"ids less the held ones {sorted(channel_ids)}"
                    )
        if len(departures) != busy:
            raise StateError(f"busy count {busy} differs from the {len(departures)} held sessions")

    def _audit_primary_loads(self, departures: list[tuple]) -> None:
        """Recompute the primary loads from the heap's links and powers, a
        record's power or, with none built, its link's; raises StateError
        when the running sums drifted by more than 1e-9 of a point's
        tolerance (or of its load, where that is larger)."""
        links = self.topology.links
        expected = self.topology.gains.g_ps[:, [entry[4] for entry in departures]] @ np.array(
            [links[link_id].power if record is None else record.power
             for *_, link_id, record in departures])
        if np.any(
            np.abs(np.array(self.primary_loads) - expected)
            > 1e-9 * np.maximum(self._tolerance, expected)
        ):
            raise StateError(
                f"primary loads {self.primary_loads} drifted from the held "
                f"sessions' {expected.tolist()}"
            )

    def _audit_qos(self, departures: list[tuple]) -> None:
        """Recompute every held session's SINR at the recorded powers with the
        independent :func:`qos.link_sinr`, on the held links' gains with the
        gains between different co-channel groups zeroed; raises StateError
        if any session misses its target."""
        ids = [entry[4] for entry in departures]
        if self.qos.channel_reuse:
            channels = np.array([entry[3] for entry in departures])
            co_channel = channels[:, None] == channels[None, :]
        else:
            co_channel = np.eye(len(ids), dtype=bool)
        sinr = qos.link_sinr(
            self.topology.gains.g_ss[np.ix_(ids, ids)] * co_channel,
            self._noise[ids],
            self._gain[ids],
            np.array([entry[5].power for entry in departures]),
        )
        missed = ~qos.qos_met(sinr, self._sinr_target[ids])
        if np.any(missed):
            raise StateError(
                f"sessions {[departures[i][1] for i in np.flatnonzero(missed)]} miss "
                "their SINR targets at their co-channel group's powers"
            )

    # -- reporting ----------------------------------------------------------

    def _report(self) -> MetricsReport:
        horizon = self.traffic_spec.horizon
        arrivals = self.arrivals
        blocked = self.blocked_no_channel + self.blocked_qos + self.blocked_interference
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
            blocked_no_channel=self.blocked_no_channel,
            blocked_qos=self.blocked_qos,
            blocked_interference=self.blocked_interference,
            metadata={
                "strategy": self.strategy.value,
                "seed": self.traffic_spec.seed,
                "horizon": horizon,
                "per_point_interference_w": per_point.tolist(),
            },
        )


def elimination_lines(n: int) -> list[str]:
    """The body lines that solve ``[I - F | u]`` for ``n`` links whose ids
    are the locals ``i0 .. i{n-1}``, reading ``scale``, ``u`` and the gain
    rows ``g`` (``g[i][j]``, link ``j``'s gain at link ``i``'s receiver, a
    Python float): entry ``(r, c)`` is the local ``a{r}_{c}`` (column ``n``
    is ``u``), row ``k`` past its pivot, divided by it, is ``t{k}_{c}`` and
    power ``k`` is ``x{k}``.  Row ``r`` loads ``f = -scale[i{r}]`` and
    ``gains = g[i{r}]`` once, so that each entry is ``f * gains[i{c}]``.
    They return ``BLOCKED_QOS`` at the first pivot that is not positive:
    with no list or loop, a solve costs its arithmetic.

    Row 0's pivot is 1.0 and ``y / 1.0`` is ``y`` exactly (-0.0, inf and
    NaN included), so row 0 is loaded straight into its divided tail
    ``t0_{c}``, step 0 has no check and no division, and its update is
    folded into each later row's load: ``a{r}_{c} = f * gains[i{c}] -
    a{r}_0 * t0_{c}``.

    This is Gaussian elimination without pivoting.  ``I - F`` is a Z-matrix
    (off-diagonal entries <= 0), and a Z-matrix is a nonsingular M-matrix,
    so ``rho(F) < 1``, exactly when every pivot is positive (Berman and
    Plemmons, *Nonnegative Matrices in the Mathematical Sciences*).  Every
    other update adds terms of one sign, so only the pivots can lose
    accuracy.  The float operations, in their order (each later entry
    becomes ``a - lead * t``; back substitution subtracts each ``t * x``
    left to right), are those of ``loop_group_powers`` in
    ``tests/oracles.py``, so the powers are bit for bit that loop's.
    """
    lines = []
    if n > 1:
        lines.append("    f = -scale[i0]; gains = g[i0]")
    lines += [f"    t0_{c} = f * gains[i{c}]" for c in range(1, n)]
    lines.append(f"    t0_{n} = u[i0]")
    for r in range(1, n):
        lines.append(f"    f = -scale[i{r}]; gains = g[i{r}]; a{r}_0 = f * gains[i0]")
        lines += [f"    a{r}_{c} = {'1.0' if c == r else f'f * gains[i{c}]'} - a{r}_0 * t0_{c}"
                  for c in range(1, n)]
        lines.append(f"    a{r}_{n} = u[i{r}] - a{r}_0 * t0_{n}")
    for k in range(1, n):
        lines.append(f"    if not a{k}_{k} > 0.0: return BLOCKED_QOS")
        lines += [f"    t{k}_{c} = a{k}_{c} / a{k}_{k}" for c in range(k + 1, n + 1)]
        lines += [f"    a{r}_{c} = a{r}_{c} - a{r}_{k} * t{k}_{c}"
                  for r in range(k + 1, n) for c in range(k + 1, n + 1)]
    for k in reversed(range(n)):
        terms = "".join(f" - t{k}_{c} * x{c}" for c in range(k + 1, n))
        lines.append(f"    x{k} = t{k}_{n}{terms}")
    return lines


@functools.cache
def _admission(n: int) -> Callable[..., Outcome]:
    """The physical admission of a grown group of ``n`` links as one
    straight-line function, generated from ``n`` alone around
    :func:`elimination_lines` and cached for the process's life.

    It unpacks the ``n - 1`` held records of ``group`` (member ``r`` is
    ``r{r}``, on link ``i{r}`` at power ``p{r}``; ``record``'s link is
    ``i{n-1}``) and solves the grown group.  A pivot that is not positive
    (``rho(F) >= 1``), or a power that is not positive and finite or over
    its cap, is a QoS block.  Then at each primary point the grown group's
    load ``after`` and the members' held load ``before``, each the ``fsum``
    of its products, must keep ``after <= tolerance - (load - before)``, or
    it is an interference block.  Only when every check passes are the
    powers written and each ``after - before`` added to its point's load,
    so a block changes nothing.  The float operations are those of
    ``loop_admission`` in ``tests/oracles.py``, so the outcome, powers and
    loads are bit for bit its own.

    The cost of a compile (2-vCPU host, Python 3.11; CPU time, and
    ``tracemalloc`` peak and retained memory):

    ===================  ========  ========  =========  =======
    links                8         16        32         64
    compile              6-8 ms    18-27 ms  82-130 ms  0.8 s
    peak                 0.95 MiB  4.8 MiB   34 MiB     256 MiB
    kept                 20 KiB    93 KiB    0.56 MiB   4.7 MiB
    ===================  ========  ========  =========  =======

    An 8-link admission then takes about 7.6 us (best of 30 replays of the
    738 in two ``phys_reuse`` runs), against 10.6 us when it read the gains
    through a flat numpy view and divided row 0 by its pivot; the loop over
    rows took 94 us to solve alone.  A group has at most one link per
    provider under reuse, and one link without it, so a process compiles at
    most the sizes from 1 to its largest provider count.
    """
    held, last = range(n - 1), n - 1
    before = "fsum((" + "".join(f"row[i{r}] * p{r}, " for r in held) + "))"
    after = "fsum((" + "".join(f"row[i{k}] * x{k}, " for k in range(n)) + "))"
    lines = ["def admission(group, record, scale, u, g, cap, rows, tolerances, loads):"]
    if held:
        lines.append("    " + "".join(f"r{r}, " for r in held) + "= group")
    lines += [f"    i{r} = r{r}.link_id; p{r} = r{r}.power" for r in held]
    lines.append(f"    i{last} = record.link_id")
    lines += elimination_lines(n)
    lines += [f"    if not (0.0 < x{k} < inf and x{k} <= cap[i{k}]): return BLOCKED_QOS"
              for k in range(n)]
    lines += [
        "    changes = []",
        "    for row, tolerance, load in zip(rows, tolerances, loads):",
        f"        before = {before}",
        f"        after = {after}",
        "        if not after <= tolerance - (load - before): return BLOCKED_INTERFERENCE",
        "        changes.append(after - before)",
    ]
    lines += [f"    r{r}.power = x{r}" for r in held]
    lines += [
        f"    record.power = x{last}",
        "    for j, change in enumerate(changes): loads[j] += change",
        "    return ADMITTED",
    ]
    namespace = {"inf": math.inf, "fsum": math.fsum, "ADMITTED": ADMITTED,
                 "BLOCKED_QOS": BLOCKED_QOS,
                 "BLOCKED_INTERFERENCE": Outcome.BLOCKED_INTERFERENCE}
    exec(compile("\n".join(lines), f"<engine._admission({n})>", "exec"), namespace)
    return namespace["admission"]


def group_powers(ids: Sequence[int], scale: Sequence[float], u: Sequence[float],
                 g_ss_rows: Sequence[Sequence[float]]) -> list[float] | None:
    """Minimal powers of the co-channel group of links ``ids``, in that
    order, ``[]`` for no ids: :func:`_admission` of the last id to stand-in
    records of the others, at no cap and no primary point.  So None means a
    pivot that is not positive (``rho(F) >= 1``) or a power that is not
    positive and finite.  ``scale`` and ``u`` are every link's
    :func:`dsasim.qos.coupling_scale` and ``scale * noise``, and
    ``g_ss_rows`` the whole gain matrix as rows, such as
    :attr:`GainMatrices.g_ss_rows <dsasim.topology.GainMatrices.g_ss_rows>`
    or ``g_ss.tolist()``: ``F[i][j] = scale[i] * g_ss_rows[i][j]``.
    """
    if not len(ids):
        return []
    *group, record = (SessionRecord(0, 0.0, 0.0, 0, None, None, i, ADMITTED) for i in ids)
    if _admission(len(ids))(group, record, scale, u, g_ss_rows, [math.inf] * len(scale),
                            (), (), []) is not ADMITTED:
        return None
    return [member.power for member in group] + [record.power]


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
    providers, ``strategy`` is not a :class:`Strategy`, or a config is not
    its class (or None).
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
