"""Benchmark passes, metrics and the result line.

A run of one workload is either

* ``trace=0``: the plain pass (operations back to back for ``seconds``,
  nothing wrapped, each paired with the same operation on the frozen
  baseline dsasim in a child process), then the memory pass (one short
  operation under ``tracemalloc``), then ``SETUP_PROBES`` pairs of fresh
  processes that each import dsasim, or the baseline, and build the
  workload's inputs; or
* ``trace=1``: the traced pass, pairs of a plain and a traced operation on
  the same seed for ``seconds``.  The pair's rows must be identical, and
  the traced wall time over the plain one gives the tracing overhead.

Every operation's rows are checked (see ``workloads.check_op``); a failed
check is a failed operation and makes the run exit non-zero.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).with_name("run.py")
BASELINE_DIR = RUN_PY.with_name("baseline")
SETUP_PROBES = 3  # pairs of program and baseline set-up probes
MEMORY_SCALE = 0.1  # the memory pass simulates a tenth of the horizon

# Host speed on a shared machine changes within seconds and by up to ~2x.
# So the time metrics are the program's speed relative to the frozen
# baseline under perfbench/baseline, measured side by side with it, times
# the baseline's own on the reference host (the 2-vCPU Xeon VM of
# README.md): arrivals per CPU second while it shares a processor with the
# program, and CPU seconds from process start until the inputs are built.
BASELINE_ARRIVALS_PER_S = {
    "fixed_erlang": 18000.0,
    "sbac_wide": 2300.0,
    "phys_reuse": 1300.0,
    "sweep_runner": 19500.0,
}
BASELINE_SETUP_S = {
    "fixed_erlang": 0.5,
    "sbac_wide": 0.5,
    "phys_reuse": 0.55,
    "sweep_runner": 0.55,
}


class Tally:
    """Operations attempted and failed, with the problems found.

    ``reference`` is None when the operations are not full size.
    """

    def __init__(self, workload: str, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seed: int, operation, full_size: bool = True):
        """Run and check one operation; None if it raised."""
        try:
            result = operation()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        self.check(seed, result, full_size)
        return result

    def check(self, seed: int, result, full_size: bool = True) -> None:
        failed, problems = workloads.check_op(
            self.workload, seed, result, self.reference if full_size else None
        )
        self.attempted += result.expected_cells
        self.failed += failed
        self.problems += [f"seed {seed}: {problem}" for problem in problems]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    memory: bool = True,
    scale: float = 1.0,
    setup_probes: int = SETUP_PROBES,
) -> dict:
    """One benchmark run of one workload; returns metrics and details."""
    tally = Tally(workload, workloads.load_reference()[workload] if scale == 1.0 else None)
    seeds = workloads.op_seeds(workload, seed)
    inputs = workloads.build_inputs(workload)
    if trace:
        metrics, details = _traced_pass(workload, inputs, seeds, seconds, scale, tally)
    else:
        metrics, details = _plain_pass(workload, inputs, seeds, seconds, scale, tally)
        if memory:
            metrics["retained_bytes_per_arrival"] = _memory_pass(
                workload, inputs, workloads.op_seeds(workload, seed), scale, tally
            )
        metrics["setup_s"], details["setup_probes"] = _setup_probes(workload, setup_probes)
    return {
        "workload": workload,
        "seed": seed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "metrics": metrics,
        "details": details,
    }


class Baseline:
    """The frozen dsasim under ``perfbench/baseline``, in a child process
    that runs one operation per request (see ``serve_baseline``)."""

    def __init__(self, workload: str, scale: float):
        self.command = [
            sys.executable, str(RUN_PY), "--serve", "--workload", workload,
            "--scale", repr(scale),
        ]  # fmt: skip
        self.workload = workload
        self.process = None

    def __enter__(self):
        self.process = subprocess.Popen(
            self.command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            ready = self.reply()
            if not Path(ready["dsasim"]).is_relative_to(BASELINE_DIR):
                raise RuntimeError(f"the baseline process imported {ready['dsasim']}")
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info):
        self.close()

    def request(self, seed: int) -> None:
        """Start the baseline's operation on ``seed``."""
        self.process.stdin.write(f"{seed}\n")
        self.process.stdin.flush()

    def reply(self) -> dict:
        """Wait for the baseline's next answer."""
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.workload} baseline process ended")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"the {self.workload} baseline failed: {reply['error']}")
        return reply

    def close(self) -> None:
        self.process.stdin.close()  # end of requests: the child exits
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def serve_baseline(workload: str, scale: float) -> None:
    """Child side of ``Baseline``: for each seed read from stdin, run the
    operation and answer one JSON line on stdout."""
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing else may write to the reply stream
    workloads.WORK_DIR = workloads.WORK_DIR / "baseline"
    inputs = workloads.build_inputs(workload)
    print(json.dumps({"dsasim": workloads.dsasim.__file__}), file=replies, flush=True)
    for line in sys.stdin:
        try:
            result = workloads.run_op(workload, inputs, int(line), scale)
            reply = {"arrivals": result.arrivals, "cpu_s": result.cpu_s}
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), file=replies, flush=True)


def _plain_pass(workload, inputs, seeds, seconds, scale, tally):
    """Program operations back to back for ``seconds``, each side by side
    with the baseline's operation on the same seed, on the same processor.

    The scheduler shares the processor between the two in slices of a few
    milliseconds, so both meet the same host speed, which on a shared
    machine changes within seconds; the program's arrivals per CPU second
    over the baseline's is the program's speed with the host's taken out.
    The sweep's workers need both processors, so there the two sides share
    them all.
    """
    pairs = []  # seed, program result or None, baseline reply
    sharing = nullcontext() if workload == "sweep_runner" else _one_processor()
    with sharing, Baseline(workload, scale) as baseline:
        start = time.perf_counter()
        # stop at the operation boundary nearest to ``seconds``
        while not pairs or (time.perf_counter() - start) * (len(pairs) + 0.5) / len(pairs) < seconds:
            op_seed = next(seeds)
            baseline.request(op_seed)
            result = tally.run(op_seed, partial(workloads.run_op, workload, inputs, op_seed, scale))
            pairs.append((op_seed, result, baseline.reply()))
        measured_s = time.perf_counter() - start
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # sweep workers have ended by now and count on top; the baseline
        # process has not, so it does not
        workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    done = [(result, base) for _, result, base in pairs if result is not None]
    if not done:
        raise RuntimeError(f"every {workload} operation failed: {tally.problems[:3]}")
    program_rate = sum(r.arrivals for r, _ in done) / sum(r.cpu_s for r, _ in done)
    baseline_rate = sum(b["arrivals"] for _, b in done) / sum(b["cpu_s"] for _, b in done)
    metrics = {
        "arrivals_per_s": BASELINE_ARRIVALS_PER_S[workload] * program_rate / baseline_rate,
        "peak_rss_mb": (self_kib + workers_kib) / 1024.0,
    }
    details = {
        "program_arrivals_per_cpu_s": program_rate,
        "baseline_arrivals_per_cpu_s": baseline_rate,
        "ops": [
            {
                "seed": s,
                "arrivals": r.arrivals,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "baseline_cpu_s": b["cpu_s"],
            }
            for s, r, b in pairs
            if r is not None
        ],
        "measured_s": measured_s,
    }
    return metrics, details


def _memory_pass(workload, inputs, seeds, scale, tally) -> float:
    op_seed = next(seeds)
    operation = partial(workloads.run_op, workload, inputs, op_seed, scale * MEMORY_SCALE, 1)
    # the simulations leave cyclic garbage; without a collection first, the
    # peak depends on when the collector last ran in earlier operations
    gc.collect()
    tracemalloc.start()
    try:
        result = tally.run(op_seed, operation, full_size=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if result is None:
        raise RuntimeError(f"the {workload} memory-pass operation failed: {tally.problems[-1]}")
    return peak / result.arrivals


def _setup_probes(workload: str, count: int) -> tuple[float, dict]:
    """CPU time from process start until the inputs are built, of the
    program over the baseline, each pair of probes run side by side on
    one processor like the plain pass; the median over ``count`` pairs,
    in seconds of the reference host, and the probes' own times."""
    probes = {"program_s": [], "baseline_s": []}
    with _one_processor():
        for _ in range(count):
            program, baseline = _setup_probe(workload, False), _setup_probe(workload, True)
            probes["program_s"].append(_probe_cpu_s(program, workload))
            probes["baseline_s"].append(_probe_cpu_s(baseline, workload))
    ratios = [p / b for p, b in zip(probes["program_s"], probes["baseline_s"])]
    return BASELINE_SETUP_S[workload] * statistics.median(ratios), probes


def _setup_probe(workload: str, baseline: bool) -> subprocess.Popen:
    command = [sys.executable, str(RUN_PY), "--probe-setup", "--workload", workload]
    if baseline:
        command.append("--baseline")
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _probe_cpu_s(probe: subprocess.Popen, workload: str) -> float:
    with probe:
        output = probe.stdout.read()
    if probe.returncode != 0 or not output.startswith("ready "):
        raise RuntimeError(f"set-up probe for {workload} failed ({probe.returncode})")
    return float(output.split()[1])


@contextmanager
def _one_processor():
    """Run this process, and the children it starts meanwhile, on one
    processor, so that they meet the same host speed."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


def write_reference(names=workloads.WORKLOADS) -> None:
    """Record every pool seed's full-size result of the named workloads as
    the committed reference; other workloads' entries are kept."""
    reference = workloads.load_reference() if workloads.REFERENCE_PATH.exists() else {}
    for workload in names:
        inputs = workloads.build_inputs(workload)
        entries = {}
        for seed in workloads.SEED_POOL:
            result = workloads.run_op(workload, inputs, seed)
            entry = workloads.reference_entry(workload, result)
            failed, problems = workloads.check_op(workload, seed, result, {str(seed): entry})
            if failed:
                raise RuntimeError(f"{workload} seed {seed} fails its checks: {problems}")
            entries[str(seed)] = entry
            print(f"{workload} seed {seed}: {result.wall_s:.2f} s", file=sys.stderr)
        reference[workload] = entries
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def probe_setup(workload: str) -> None:
    workloads.build_inputs(workload)
    print("ready", time.process_time(), flush=True)  # CPU time since the process began


# -- traced pass ----------------------------------------------------------


def _traced_pass(workload, inputs, seeds, seconds, scale, tally):
    import tracing

    def traced_op(op_seed):
        with tracing.Tracer(workloads.WORK_DIR / "spans") as tracer:
            traced_inputs = workloads.build_inputs(workload)
            result = workloads.run_op(workload, traced_inputs, op_seed, scale)
            result.spans = tracer.take()
        return result

    pairs = []
    attempts = 0
    start = time.perf_counter()
    while attempts == 0 or (time.perf_counter() - start) * (attempts + 0.5) / attempts < seconds:
        attempts += 1
        op_seed = next(seeds)
        plain = tally.run(op_seed, partial(workloads.run_op, workload, inputs, op_seed, scale))
        failed = tally.failed
        traced = tally.run(op_seed, partial(traced_op, op_seed))
        if plain is None or traced is None:
            continue
        if traced.rows != plain.rows and tally.failed == failed:  # not yet counted
            tally.failed += traced.expected_cells
            tally.problems.append(f"seed {op_seed}: traced rows differ from plain rows")
        pairs.append((op_seed, plain, traced))
    if not pairs:
        raise RuntimeError(f"every {workload} operation failed: {tally.problems[:3]}")
    metrics = layer_metrics(workload, [pair[1:] for pair in pairs])
    details = {
        "ops": [
            {
                "seed": op_seed,
                "arrivals": plain.arrivals,
                "plain_wall_s": plain.wall_s,
                "traced_wall_s": traced.wall_s,
            }
            for op_seed, plain, traced in pairs
        ],
        "measured_s": time.perf_counter() - start,
    }
    return metrics, details


def layer_metrics(workload: str, pairs) -> dict:
    """Per-layer metrics: span times are medians over operations, counts
    are means per operation, per-call percentiles pool every call."""
    import tracing

    spans = [traced.spans for _, traced in pairs]
    rows = [traced.rows for _, traced in pairs]

    def per_op_time(key):
        return statistics.median(s.time.get(key, 0.0) for s in spans)

    def per_op_count(key):
        return statistics.fmean(s.count.get(key, 0) for s in spans)

    def total(key):
        return sum(s.count.get(key, 0) for s in spans)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    def percentile_us(key, q):
        samples = [x for s in spans for x in s.samples.get(key, ())]
        return float(np.percentile(samples, q)) * 1e6 if samples else 0.0

    def row_count(field):
        return statistics.fmean(sum(int(r[field]) for r in op_rows) for op_rows in rows)

    def engine_self(s):
        children = sum(s.time.get(key, 0.0) for key in tracing.ENGINE_CHILDREN)
        return s.time.get("engine.run", 0.0) - children - s.time.get(tracing.BOOKKEEPING, 0.0)

    workers = workloads.SWEEP_WORKERS if workload == "sweep_runner" else 1
    efficiency = [
        t.spans.time.get("runner.execute_run", 0.0) / (workers * t.wall_s) for _, t in pairs
    ]
    run_samples = [x for s in spans for x in s.samples.get("runner.execute_run", ())]

    metrics = {
        "traffic.build_event_stream_s": per_op_time("traffic.build_event_stream"),
        "traffic.events": per_op_count("traffic.events"),
        "sbac.select_best_channel_s": per_op_time("sbac.select_best_channel"),
        "sbac.calls": per_op_count("sbac.select_best_channel"),
        "sbac.call_p50_us": percentile_us("sbac.select_best_channel", 50),
        "sbac.call_p99_us": percentile_us("sbac.select_best_channel", 99),
        "sbac.pools_per_call": ratio("sbac.pools", "sbac.select_best_channel"),
        "sbac.free_channels_per_call": ratio("sbac.free_channels", "sbac.select_best_channel"),
        "engine.run_s": per_op_time("engine.run"),
        "engine.candidate_pools_s": per_op_time("engine.candidate_pools"),
        "engine.subtopology_s": per_op_time("engine.subtopology"),
        "engine.self_s": statistics.median(engine_self(s) for s in spans),
        "engine.events": row_count("arrivals") + row_count("admitted"),
        "engine.admitted": row_count("admitted"),
    }
    for field in workloads.BLOCK_FIELDS:
        metrics[f"engine.{field}"] = row_count(field)
    metrics.update(
        {
            "qos.min_power_allocation_s": per_op_time("qos.min_power_allocation"),
            "qos.calls": per_op_count("qos.min_power_allocation"),
            "qos.call_p50_us": percentile_us("qos.min_power_allocation", 50),
            "qos.call_p99_us": percentile_us("qos.min_power_allocation", 99),
            "qos.iterations_mean": ratio("qos.iterations", "qos.returned"),
        }
    )
    for size in range(1, tracing.MAX_GROUP + 1):
        metrics[f"qos.group_size.{size}"] = per_op_count(f"qos.group_size.{size}")
    for verdict in ("feasible", "over_cap", "interference", "indeterminate"):
        metrics[f"qos.verdict.{verdict}"] = per_op_count(f"qos.verdict.{verdict}")
    metrics.update(
        {
            "qos_violation_share": ratio("qos.violations", "qos.verdict.feasible"),
            "metrics.report_s": per_op_time("metrics.report"),
            "topology.gains_s": per_op_time("topology.gains"),
            "topology.validate_s": per_op_time("topology.validate"),
            "config.load_s": per_op_time("config.load"),
            "runner.runs": per_op_count("runner.execute_run"),
            "runner.failed_runs": per_op_count("runner.failed_runs"),
            "runner.execute_run_p50_s": statistics.median(run_samples) if run_samples else 0.0,
            "runner.write_s": per_op_time("runner.write"),
            "runner.parallel_efficiency": statistics.median(efficiency),
            "trace.overhead_share": statistics.median(
                t.wall_s / p.wall_s - 1.0 for p, t in pairs
            ),
        }
    )
    return metrics


# -- output ---------------------------------------------------------------


def machine_block() -> dict:
    import numpy
    import scipy

    commit = None
    head = ROOT / ".git"
    if head.exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "code": {"git_commit": commit, "src_lines": src_lines},
    }
