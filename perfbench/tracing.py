"""Per-layer spans recorded around the calls into each dsasim module.

``Tracer`` replaces module functions and ``Simulation`` methods with timing
wrappers while it is entered and puts the originals back on exit.  Each
wrapped call adds its duration to a span total keyed ``<module>.<call>``
and bumps a call count; a few wrappers also count the work they see (pools,
free channels, co-channel group sizes, solver verdicts).  Bookkeeping that
runs inside a traced simulation but outside any child span is timed apart,
so that it can be taken out of the engine's self time.

Sweep cells that run in forked worker processes carry the wrappers with
them; each cell writes its span totals to a file that the parent merges.
"""
from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial, wraps
from pathlib import Path
from time import perf_counter

import numpy as np

from dsasim import config, engine, errors, qos, runner, sbac, topology, traffic

MAX_GROUP = 8  # qos.group_size.8 counts groups of 8 or more links

# span key -> the (owner, attribute) bindings the call goes through
SPANS = {
    "traffic.build_event_stream": [
        (engine, "build_event_stream"),
        (traffic, "build_event_stream"),
    ],
    "sbac.select_best_channel": [(sbac, "select_best_channel")],
    "engine.run": [(engine.Simulation, "run")],
    "engine.candidate_pools": [(engine.Simulation, "_candidate_pools")],
    "engine.subtopology": [(engine, "_subtopology")],
    "qos.min_power_allocation": [(qos, "min_power_allocation")],
    "metrics.report": [(engine.Simulation, "_report")],
    "topology.gains": [(topology, "gains_from_positions"), (config, "gains_from_positions")],
    "topology.validate": [
        (topology, "validate_topology"),
        (engine, "validate_topology"),
        (config, "validate_topology"),
    ],
    "config.load": [(config, "load_config")],
    "runner.execute_run": [(runner, "execute_run")],
    "runner.write": [(runner, "write_results_csv")],
}
# spans whose every call duration is kept, for percentiles
SAMPLED = {"sbac.select_best_channel", "qos.min_power_allocation", "runner.execute_run"}
# spans nested directly inside engine.run
ENGINE_CHILDREN = (
    "traffic.build_event_stream",
    "engine.candidate_pools",
    "sbac.select_best_channel",
    "engine.subtopology",
    "qos.min_power_allocation",
    "metrics.report",
)
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Spans:
    """Span totals (seconds), counts and per-call samples of one operation."""

    time: dict = field(default_factory=lambda: defaultdict(float))
    count: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))

    def merge(self, other: dict) -> None:
        for key, value in other["time"].items():
            self.time[key] += value
        self.count.update(other["count"])
        for key, values in other["samples"].items():
            self.samples[key].extend(values)

    def as_dict(self) -> dict:
        return {"time": dict(self.time), "count": dict(self.count), "samples": dict(self.samples)}


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.spans = Spans()
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def __enter__(self) -> Tracer:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.worker_dir.glob("*.json"):  # left by an interrupted run
            stale.unlink()
        for key, bindings in SPANS.items():
            for owner, name in bindings:
                if key == "qos.min_power_allocation":
                    self._install(owner, name, self._wrap_solver)
                elif key == "sbac.select_best_channel":
                    self._install(owner, name, partial(self._wrap, key, before=self._count_pools))
                elif key == "traffic.build_event_stream":
                    self._install(owner, name, partial(self._wrap, key, after=self._count_events))
                else:
                    self._install(owner, name, partial(self._wrap, key))
        self._install(runner, "_worker", self._wrap_worker)
        return self

    def _install(self, owner, name, make_wrapper) -> None:
        original = vars(owner).get(name)
        if original is None:  # a later refactor removed this call
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def take(self) -> Spans:
        """Spans recorded since the last call, merged with worker files."""
        spans, self.spans = self.spans, Spans()
        for path in sorted(self.worker_dir.glob("*.json")):
            spans.merge(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return spans

    # -- wrappers ---------------------------------------------------------

    def _record(self, key: str, elapsed: float) -> None:
        self.spans.time[key] += elapsed
        self.spans.count[key] += 1
        if key in SAMPLED:
            self.spans.samples[key].append(elapsed)

    def _wrap(self, key, original, before=None, after=None):
        """Span wrapper; ``before(args)`` and ``after(return_value)`` count
        work seen at the boundary and are timed as bookkeeping."""

        @wraps(original)
        def wrapped(*args, **kwargs):
            if before is not None:
                start = perf_counter()
                before(args)
                self.spans.time[BOOKKEEPING] += perf_counter() - start
            start = perf_counter()
            try:
                return_value = original(*args, **kwargs)
            finally:
                self._record(key, perf_counter() - start)
            if after is not None:
                start = perf_counter()
                after(return_value)
                self.spans.time[BOOKKEEPING] += perf_counter() - start
            return return_value

        return wrapped

    def _count_events(self, events) -> None:
        self.spans.count["traffic.events"] += len(events)

    def _count_pools(self, args) -> None:
        pools = args[0]
        self.spans.count["sbac.pools"] += len(pools)
        self.spans.count["sbac.free_channels"] += sum(
            len(pool.available_channels) for pool in pools
        )

    def _wrap_solver(self, original):
        key = "qos.min_power_allocation"
        indeterminate = getattr(errors, "SolverIndeterminateError", ())

        @wraps(original)
        def wrapped(sub, *args, **kwargs):
            count = self.spans.count
            start = perf_counter()
            try:
                solution = original(sub, *args, **kwargs)
            except indeterminate:
                self._record(key, perf_counter() - start)
                count[f"qos.group_size.{min(sub.num_links, MAX_GROUP)}"] += 1
                count["qos.verdict.indeterminate"] += 1
                raise
            self._record(key, perf_counter() - start)
            start = perf_counter()
            count[f"qos.group_size.{min(sub.num_links, MAX_GROUP)}"] += 1
            count["qos.returned"] += 1
            count["qos.iterations"] += getattr(solution, "iterations", 0)
            if solution.feasible:
                count["qos.verdict.feasible"] += 1
                report = qos.compute_sinr(
                    sub, solution.powers, kwargs.get("use_processing_gain", True)
                )
                if not np.all(qos.check_qos(report, sub)):
                    count["qos.violations"] += 1
            elif not (
                getattr(solution, "converged", True)
                and getattr(solution, "within_power_caps", True)
            ):
                count["qos.verdict.over_cap"] += 1
            else:
                count["qos.verdict.interference"] += 1
            self.spans.time[BOOKKEEPING] += perf_counter() - start
            return solution

        return wrapped

    def _wrap_worker(self, original):
        """Sweep cell wrapper: counts failed cells and, in a forked worker,
        hands the cell's spans to the parent through a file."""

        @wraps(original)
        def wrapped(job):
            in_worker = os.getpid() != self._pid
            if in_worker:
                self.spans = Spans()
            index, row, records, error = original(job)
            if error is not None:
                self.spans.count["runner.failed_runs"] += 1
            if in_worker:
                path = self.worker_dir / f"{os.getpid()}-{index}.json"
                path.write_text(json.dumps(self.spans.as_dict()), encoding="utf-8")
                self.spans = Spans()
            return index, row, records, error

        return wrapped
