"""The four benchmark workloads: seeded inputs, one operation each, output checks.

An operation is one simulation run (``run_simulation``), or for
``sweep_runner`` one ``run_scenario`` call whose every sweep cell counts as
an operation.  Traffic seeds come from a fixed pool of ``SEED_POOL`` seeds;
``reference.json`` holds the result row of every pool seed at full size, so
every full-size operation is checked against a committed reference.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from dsasim import (
    PrimaryReceivingPoint,
    QosConfig,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    Strategy,
    TrafficSpec,
    erlang_b,
    run_simulation,
)
import dsasim
from dsasim import topology as dsa_topology

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
SWEEP_CONFIG = HERE / "configs" / "arrival_sweep.yaml"
WORK_DIR = HERE / "_work"

SEED_POOL = tuple(range(1, 33))
MEAN_HOLDING_S = 10.0
SWEEP_WORKERS = 2

# the result-row statistics, named and formatted as in results.csv
FLOAT_FIELDS = (
    "blocking_probability",
    "throughput_bps",
    "spectral_efficiency",
    "mean_interference_w",
    "mean_prop_delay_s",
    "mean_rtt_s",
)
COUNT_FIELDS = (
    "arrivals",
    "admitted",
    "blocked_no_channel",
    "blocked_qos",
    "blocked_interference",
)
BLOCK_FIELDS = COUNT_FIELDS[2:]

# Erlang-B oracle on fixed_erlang: 1 provider x 10 channels at 5 Erlangs
ERLANG_CHANNELS = 10
ERLANG_LOAD = 5.0
ERLANG_TOLERANCE = 0.003

# phys_reuse may legitimately move in the last digits when the power solver
# changes; its arrivals must still match exactly
PHYS_FLOAT_RTOL = 1e-2
PHYS_COUNT_SHARE = 1e-2


@dataclass(frozen=True)
class Scenario:
    """One ``run_simulation`` workload on a synthetic line topology."""

    providers: int
    channels: int
    links: int
    erlangs_per_channel: tuple[float, ...]  # cycled over the providers
    horizon: float
    strategy: Strategy
    physical: bool = False
    tolerance: float = 1e-3  # primary-point interference budget, watts


@dataclass
class OpResult:
    """Rows and host time of one operation."""

    rows: list[dict]  # string-valued, one per run (sweep cell)
    wall_s: float
    cpu_s: float = 0.0  # of this process and of the sweep workers it ended
    csv_sha256: str | None = None
    failed_cells: int = 0  # sweep cells the runner reported as failed
    expected_cells: int = 1
    spans: object = None  # per-layer spans, on a traced operation

    @property
    def arrivals(self) -> int:
        return sum(int(row["arrivals"]) for row in self.rows)


SCENARIOS = {
    # the C1 acceptance case: an exact M/M/K/K system at 1e5 arrivals
    "fixed_erlang": Scenario(1, 10, 2, (0.5,), 2.0e5, Strategy.FIXED),
    # 10 x 100 channels under uneven load, so calls borrow across bands
    "sbac_wide": Scenario(10, 100, 2, (1.2, 0.4), 40.0, Strategy.DYNAMIC_SBAC),
    # co-channel groups of 1..8 and all three block causes
    "phys_reuse": Scenario(
        8, 10, 32, (0.8,), 150.0, Strategy.DYNAMIC_SBAC, physical=True, tolerance=4e-11
    ),
}
WORKLOADS = (*SCENARIOS, "sweep_runner")


def op_seeds(workload: str, seed: int):
    """Endless, seed-determined sequence of traffic seeds from the pool."""
    order = random.Random(f"{workload}/{seed}").sample(SEED_POOL, len(SEED_POOL))
    while True:
        yield from order


# -- inputs ---------------------------------------------------------------


def line_topology(scenario: Scenario):
    """Providers on adjacent 1 MHz grids and links on a line, one primary point."""
    providers = tuple(
        ServiceProvider(
            id=p,
            channels=tuple(
                SpectrumChannel(
                    id=k, center_frequency=(400.0 + 50.0 * p + k) * 1e6, bandwidth=1e6
                )
                for k in range(scenario.channels)
            ),
            cost_rate=0.05,
        )
        for p in range(scenario.providers)
    )
    links = tuple(
        SecondaryLink(
            id=i,
            tx_position=(300.0 * i, 0.0),
            rx_position=(300.0 * i + 200.0, 150.0),
            bandwidth=1e6,
            rate=1e5,
            rate_min=5e4,
            rate_max=2e5,
            power=0.1,
            power_max=1.0,
            noise=1e-10,
            sinr_target=5.0,
        )
        for i in range(scenario.links)
    )
    points = (
        PrimaryReceivingPoint(id=0, position=(1000.0, 1000.0), tolerance=scenario.tolerance),
    )
    gains = dsa_topology.gains_from_positions(
        links, points, path_loss_exponent=3.0, reference_distance=1.0
    )
    return dsa_topology.NetworkTopology(
        providers=providers, links=links, primary_points=points, gains=gains
    )


def build_inputs(workload: str):
    """Everything an operation needs except its seed: the set-up cost."""
    if workload == "sweep_runner":
        from dsasim import config as dsa_config
        from dsasim import runner as dsa_runner  # noqa: F401 - part of set-up

        return dsa_config.load_config(SWEEP_CONFIG)
    return line_topology(SCENARIOS[workload])


# -- one operation --------------------------------------------------------


def cpu_s() -> float:
    """CPU seconds used so far by this process and its ended children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def report_row(report) -> dict:
    """The statistics columns of a results.csv row, formatted the same way."""
    values = {
        "blocking_probability": report.blocking_probability,
        "throughput_bps": report.throughput,
        "spectral_efficiency": report.spectral_efficiency,
        "mean_interference_w": report.mean_primary_interference,
        "mean_prop_delay_s": report.mean_propagation_delay,
        "mean_rtt_s": report.mean_rtt,
    }
    row = {name: repr(float(value)) for name, value in values.items()}
    row.update({name: str(int(getattr(report, name))) for name in COUNT_FIELDS})
    return row


def run_op(workload: str, inputs, seed: int, scale: float = 1.0, workers: int = SWEEP_WORKERS):
    """Run one operation; ``scale`` shrinks the simulated horizon."""
    if workload == "sweep_runner":
        return _run_sweep(inputs, seed, scale, workers)
    scenario = SCENARIOS[workload]
    rates = tuple(
        scenario.erlangs_per_channel[p % len(scenario.erlangs_per_channel)]
        * scenario.channels
        / MEAN_HOLDING_S
        for p in range(scenario.providers)
    )
    traffic = TrafficSpec(
        arrival_rates=rates,
        mean_holding_time=MEAN_HOLDING_S,
        horizon=scenario.horizon * scale,
        seed=seed,
    )
    qos_config = QosConfig(physical_checks=scenario.physical, channel_reuse=scenario.physical)
    start, cpu_start = time.perf_counter(), cpu_s()
    _, report = run_simulation(inputs, traffic, scenario.strategy, qos_config=qos_config)
    wall, cpu = time.perf_counter() - start, cpu_s() - cpu_start
    return OpResult(rows=[report_row(report)], wall_s=wall, cpu_s=cpu)


def _run_sweep(config, seed: int, scale: float, workers: int) -> OpResult:
    from dsasim import runner as dsa_runner

    if scale != 1.0:
        traffic = dataclasses.replace(config.traffic, horizon=config.traffic.horizon * scale)
        config = dataclasses.replace(config, traffic=traffic)
    out = WORK_DIR / "sweep"
    shutil.rmtree(out, ignore_errors=True)
    saved = os.environ.get(dsa_runner.WORKERS_ENV_VAR)
    os.environ[dsa_runner.WORKERS_ENV_VAR] = str(workers)
    try:
        start, cpu_start = time.perf_counter(), cpu_s()
        dsa_runner.run_scenario(config, out, seed_override=seed)
        wall, cpu = time.perf_counter() - start, cpu_s() - cpu_start
    finally:
        if saved is None:
            del os.environ[dsa_runner.WORKERS_ENV_VAR]
        else:
            os.environ[dsa_runner.WORKERS_ENV_VAR] = saved
    data = (out / "results.csv").read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return OpResult(
        rows=rows,
        wall_s=wall,
        cpu_s=cpu,
        csv_sha256=hashlib.sha256(data).hexdigest(),
        failed_cells=sum(run["status"] != "ok" for run in manifest["runs"]),
        expected_cells=len(manifest["runs"]),
    )


# -- output checks --------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def reference_entry(workload: str, result: OpResult) -> dict:
    """What ``reference.json`` records for one full-size operation."""
    if workload == "sweep_runner":
        return {"results_csv_sha256": result.csv_sha256, "arrivals": result.arrivals}
    return result.rows[0]


def check_op(
    workload: str, seed: int, result: OpResult, reference: dict | None
) -> tuple[int, list[str]]:
    """Failed operations and the problems found; ``reference=None`` skips the
    checks calibrated for full-size runs (reference match and Erlang-B)."""
    row_problems = []
    failed_rows = 0
    for index, row in enumerate(result.rows):
        blocked = sum(int(row[name]) for name in BLOCK_FIELDS)
        if int(row["arrivals"]) != int(row["admitted"]) + blocked:
            row_problems.append(f"row {index}: arrivals != admitted + blocked")
            failed_rows += 1
    op_problems = []
    if reference is not None:
        op_problems += _check_reference(workload, result, reference[str(seed)])
        if workload == "fixed_erlang":
            blocking = float(result.rows[0]["blocking_probability"])
            if abs(blocking - erlang_b(ERLANG_CHANNELS, ERLANG_LOAD)) > ERLANG_TOLERANCE:
                op_problems.append(
                    f"blocking {blocking} off Erlang-B by more than {ERLANG_TOLERANCE}"
                )
    if len(result.rows) + result.failed_cells != result.expected_cells:
        op_problems.append(f"{len(result.rows)} rows for {result.expected_cells} runs")
    problems = row_problems + op_problems
    if result.failed_cells:
        problems.append(f"{result.failed_cells} runs failed in the runner")
    if op_problems:
        return result.expected_cells, problems
    return failed_rows + result.failed_cells, problems


def _check_reference(workload: str, result: OpResult, expected: dict) -> list[str]:
    if workload == "sweep_runner":
        if result.csv_sha256 != expected["results_csv_sha256"]:
            return ["results.csv digest differs from the reference"]
        return []
    row = result.rows[0]
    if workload != "phys_reuse":
        return [
            f"{name}: {row[name]} != reference {expected[name]}"
            for name in expected
            if row[name] != expected[name]
        ]
    arrivals = int(expected["arrivals"])
    problems = []
    if int(row["arrivals"]) != arrivals:
        problems.append(f"arrivals: {row['arrivals']} != reference {arrivals}")
    for name in COUNT_FIELDS[1:]:
        if abs(int(row[name]) - int(expected[name])) > PHYS_COUNT_SHARE * arrivals:
            problems.append(f"{name}: {row[name]} too far from reference {expected[name]}")
    for name in FLOAT_FIELDS:
        if not math.isclose(float(row[name]), float(expected[name]), rel_tol=PHYS_FLOAT_RTOL):
            problems.append(f"{name}: {row[name]} too far from reference {expected[name]}")
    return problems
