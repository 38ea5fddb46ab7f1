"""Batch execution: expand a scenario into runs, collect rows, write tables.

Every (sweep point, seed, strategy) combination is one independent
simulation.  Runs may fan out to worker processes (``DSASIM_WORKERS``
environment variable); rows are always written in deterministic sorted
order regardless of completion order, so repeated invocations of the same
config produce byte-identical result files.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import __version__
from .config import ScenarioConfig, apply_sweep_point, config_to_document
from .engine import SessionRecord, Strategy, run_simulation
from .errors import ConfigError

logger = logging.getLogger(__name__)

WORKERS_ENV_VAR = "DSASIM_WORKERS"

# the session log header: the SessionRecord fields in declaration order
SESSION_COLUMNS = tuple(f.name for f in dataclasses.fields(SessionRecord))


def _csv_cell(value) -> str:
    """One results.csv or session-log cell: floats in full precision."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


@dataclass(frozen=True)
class ResultRow:
    sweep_param: str
    sweep_value: float | None
    seed: int
    strategy: str
    blocking_probability: float
    throughput_bps: float
    spectral_efficiency: float
    mean_interference_w: float
    mean_prop_delay_s: float
    mean_rtt_s: float
    arrivals: int
    admitted: int
    blocked_no_channel: int
    blocked_qos: int
    blocked_interference: int


# the results.csv header: the ResultRow fields in declaration order
RESULT_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


@dataclass(frozen=True)
class RunSpec:
    """One (sweep point, seed, strategy) cell of the run matrix."""

    index: int
    sweep_param: str
    sweep_value: float | None
    seed: int
    strategy: Strategy


def expand_runs(config: ScenarioConfig, seed_override: int | None = None) -> list[RunSpec]:
    """Every (sweep point, seed, strategy) cell; raises ConfigError for a
    ``seed_override`` that is not an integer >= 0."""
    base_seed = config.traffic.seed if seed_override is None else seed_override
    # TrafficSpec has checked traffic.seed, so only an override can fail here
    if not isinstance(base_seed, int) or isinstance(base_seed, bool) or base_seed < 0:
        raise ConfigError(f"seed_override must be an integer >= 0, got {seed_override!r}")
    if config.sweep is None:
        points: list[tuple[str, float | None]] = [("none", None)]
        seeds_per_point = 1
    else:
        points = [(config.sweep.parameter, value) for value in config.sweep.values]
        seeds_per_point = config.sweep.seeds_per_point

    runs = []
    index = 0
    for param, value in points:
        for seed_offset in range(seeds_per_point):
            for strategy in config.strategies:
                runs.append(
                    RunSpec(
                        index=index,
                        sweep_param=param,
                        sweep_value=value,
                        seed=base_seed + seed_offset,
                        strategy=strategy,
                    )
                )
                index += 1
    return runs


def execute_run(
    config: ScenarioConfig, spec: RunSpec, with_records: bool = False
) -> tuple[ResultRow, list[SessionRecord] | None]:
    """Run one cell of the matrix and convert its report to a result row;
    the run's session records come with it only ``with_records``."""
    if spec.sweep_value is None:
        topology, traffic = config.topology, config.traffic
    else:
        topology, traffic = apply_sweep_point(config, spec.sweep_param, spec.sweep_value)
    traffic = dataclasses.replace(traffic, seed=spec.seed)

    records, report = run_simulation(
        topology,
        traffic,
        spec.strategy,
        sbac_config=config.sbac,
        qos_config=config.qos,
        keep_records=with_records,
    )
    row = ResultRow(
        sweep_param=spec.sweep_param,
        sweep_value=spec.sweep_value,
        seed=spec.seed,
        strategy=spec.strategy.value,
        blocking_probability=report.blocking_probability,
        throughput_bps=report.throughput,
        spectral_efficiency=report.spectral_efficiency,
        mean_interference_w=report.mean_primary_interference,
        mean_prop_delay_s=report.mean_propagation_delay,
        mean_rtt_s=report.mean_rtt,
        arrivals=report.arrivals,
        admitted=report.admitted,
        blocked_no_channel=report.blocked_no_channel,
        blocked_qos=report.blocked_qos,
        blocked_interference=report.blocked_interference,
    )
    return row, records


def _worker(args):
    config, spec, with_records = args
    try:
        row, records = execute_run(config, spec, with_records)
        return spec.index, row, records, None
    except Exception as exc:  # noqa: BLE001 - reported in the manifest
        return spec.index, None, None, f"{type(exc).__name__}: {exc}"


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        count = int(raw)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", WORKERS_ENV_VAR, raw)
        return 1
    return max(1, count)


def _run_label(spec: RunSpec) -> str:
    value = "single" if spec.sweep_value is None else repr(spec.sweep_value)
    return f"{spec.sweep_param}_{value}_seed{spec.seed}_{spec.strategy.value}"


def _write_table(path: Path, columns: tuple[str, ...], items) -> None:
    """One CSV row per item: its ``columns`` attributes through :func:`_csv_cell`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for item in items:
            writer.writerow([_csv_cell(getattr(item, column)) for column in columns])


def write_results_csv(path: Path, rows: list[ResultRow]) -> None:
    _write_table(path, RESULT_COLUMNS, rows)


def write_session_log(path: Path, records: list[SessionRecord]) -> None:
    _write_table(path, SESSION_COLUMNS, records)


def run_scenario(
    config: ScenarioConfig,
    output_dir,
    seed_override: int | None = None,
    verbose: bool = False,
) -> int:
    """Execute every run of the scenario and write results under output_dir.

    Writes ``results.csv`` (one row per run, fixed column order) and
    ``manifest.json`` recording parameters, per-run status and overall
    completeness.  With ``verbose`` a per-run session log is written under
    ``sessions/``.  Returns 0 iff every run completed.  An invalid
    ``seed_override`` raises ConfigError before any run or write.
    """
    runs = expand_runs(config, seed_override)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    workers = _worker_count()
    logger.info("executing %d runs with %d worker(s)", len(runs), workers)

    results: dict[int, ResultRow] = {}
    session_logs: dict[int, list[SessionRecord]] = {}
    failures: dict[int, str] = {}

    jobs = [(config, spec, verbose) for spec in runs]
    if workers > 1 and len(runs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_worker, jobs))
    else:
        outcomes = [_worker(job) for job in jobs]

    for index, row, records, error in outcomes:
        if error is not None:
            failures[index] = error
            logger.error("run %s failed: %s", _run_label(runs[index]), error)
            continue
        results[index] = row
        if records is not None:
            session_logs[index] = records

    rows = [results[i] for i in sorted(results)]
    write_results_csv(output_dir / "results.csv", rows)

    if session_logs:
        sessions_dir = output_dir / "sessions"
        sessions_dir.mkdir(exist_ok=True)
        for index, records in sorted(session_logs.items()):
            write_session_log(sessions_dir / f"{_run_label(runs[index])}.csv", records)

    manifest = {
        "artifact": "dsasim",
        "version": __version__,
        "seed_override": seed_override,
        "config": config_to_document(config),
        "runs": [
            {
                "index": spec.index,
                "sweep_param": spec.sweep_param,
                "sweep_value": spec.sweep_value,
                "seed": spec.seed,
                "strategy": spec.strategy.value,
                "status": "failed" if spec.index in failures else "ok",
                **({"error": failures[spec.index]} if spec.index in failures else {}),
            }
            for spec in runs
        ],
        "complete": not failures,
    }
    with open(output_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if failures:
        logger.error("%d of %d runs failed; partial results kept", len(failures), len(runs))
        return 1
    return 0
