"""Smoke test of the benchmark at tiny sizes; it asserts nothing about wall time.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dsasim import engine, qos, runner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.02  # share of each workload's simulated horizon


def declared(kind: str) -> dict:
    return {spec["name"]: spec["unit"] for spec in BENCHMARK[kind]}


def tiny_run(workload: str, trace: bool) -> dict:
    return harness.run_workload(workload, 7, 0.0, trace, scale=TINY, setup_probes=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plain_run_emits_every_end_to_end_metric(workload):
    run_ = tiny_run(workload, trace=False)
    assert run_["failed"] == 0, run_["problems"]
    assert run_["attempted"] >= 1
    assert set(run_["metrics"]) == set(declared("end_to_end"))
    assert all(value > 0 for value in run_["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_reproduces_plain_rows(workload):
    run_ = tiny_run(workload, trace=True)
    # the traced pass fails any operation whose rows differ from the plain run
    assert run_["failed"] == 0, run_["problems"]
    assert set(run_["metrics"]) == set(declared("per_layer"))
    metrics = run_["metrics"]
    assert metrics["engine.run_s"] > 0
    assert metrics["sbac.calls"] == metrics["traffic.events"]
    assert metrics["engine.events"] == pytest.approx(
        metrics["traffic.events"] + metrics["engine.admitted"]
    )


def test_arrivals_per_s_is_the_program_speed_over_the_baseline_speed():
    run_ = tiny_run("phys_reuse", trace=False)
    details = run_["details"]
    speedup = details["program_arrivals_per_cpu_s"] / details["baseline_arrivals_per_cpu_s"]
    nominal = harness.BASELINE_ARRIVALS_PER_S["phys_reuse"]
    assert run_["metrics"]["arrivals_per_s"] == pytest.approx(nominal * speedup)
    assert all(op["baseline_cpu_s"] > 0 for op in details["ops"])


def test_every_child_process_has_ended_after_a_run(monkeypatch):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(harness.subprocess, "Popen", Recorded)
    for workload in ("fixed_erlang", "sweep_runner"):
        tiny_run(workload, trace=False)
    assert len(started) == 2 * (1 + 2)  # a baseline and a pair of set-up probes each
    assert all(process.returncode is not None for process in started)


def test_traced_rows_that_differ_from_plain_rows_fail(monkeypatch):
    untraced_run = vars(engine.Simulation)["run"]
    plain_op = workloads.run_op

    def op(*args, **kwargs):
        result = plain_op(*args, **kwargs)
        if vars(engine.Simulation)["run"] is not untraced_run:  # inside the traced pass
            result.rows[0] = dict(result.rows[0], throughput_bps="0.0")
        return result

    monkeypatch.setattr(workloads, "run_op", op)
    run_ = tiny_run("fixed_erlang", trace=True)
    assert run_["failed"] >= 1
    assert any("traced rows differ" in problem for problem in run_["problems"])


def test_a_raising_operation_is_a_failed_one(monkeypatch):
    plain_op = workloads.run_op
    calls = []

    def op(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("injected")
        return plain_op(*args, **kwargs)

    monkeypatch.setattr(workloads, "run_op", op)
    run_ = harness.run_workload("sbac_wide", 7, 0.2, False, scale=TINY, setup_probes=1)
    assert run_["failed"] == 1
    assert run_["attempted"] == len(calls) > 1
    assert "ValueError: injected" in run_["problems"][0]


def test_wrappers_are_restored():
    def bindings():
        spans = [binding for bindings in tracing.SPANS.values() for binding in bindings]
        return [(owner, name, vars(owner)[name]) for owner, name in [*spans, (runner, "_worker")]]

    before = bindings()
    tiny_run("phys_reuse", trace=True)
    assert bindings() == before


@pytest.mark.parametrize("verdict, share", [(False, 1.0), (True, 0.0)])
def test_qos_violation_share_comes_from_check_qos(monkeypatch, verdict, share):
    monkeypatch.setattr(
        qos, "check_qos", lambda report, topology: np.full(topology.num_links, verdict)
    )
    metrics = tiny_run("phys_reuse", trace=True)["metrics"]
    assert metrics["qos.verdict.feasible"] > 0
    assert metrics["qos_violation_share"] == share


def test_qos_violation_share_reports_the_solver_as_it_is():
    metrics = tiny_run("phys_reuse", trace=True)["metrics"]
    assert 0.0 < metrics["qos_violation_share"] <= 1.0


def test_reference_check_is_exact_and_counts_a_failed_operation():
    inputs = workloads.build_inputs("sbac_wide")
    result = workloads.run_op("sbac_wide", inputs, 5, scale=TINY)
    entry = workloads.reference_entry("sbac_wide", result)
    assert workloads.check_op("sbac_wide", 5, result, {"5": entry}) == (0, [])
    last_digit = dict(entry, throughput_bps=repr(float(entry["throughput_bps"]) * (1 + 1e-15)))
    failed, problems = workloads.check_op("sbac_wide", 5, result, {"5": last_digit})
    assert failed == 1 and problems


def test_phys_reuse_reference_tolerates_last_digits_but_not_arrivals():
    inputs = workloads.build_inputs("phys_reuse")
    result = workloads.run_op("phys_reuse", inputs, 5, scale=TINY)
    entry = workloads.reference_entry("phys_reuse", result)
    drift = repr(float(entry["mean_interference_w"]) * (1 + 1e-6))
    moved = dict(entry, mean_interference_w=drift)
    assert workloads.check_op("phys_reuse", 5, result, {"5": moved})[0] == 0
    more = dict(entry, arrivals=str(int(entry["arrivals"]) + 1))
    assert workloads.check_op("phys_reuse", 5, result, {"5": more})[0] == 1


def test_erlang_b_and_conservation_checks():
    row = {name: "0.0" for name in workloads.FLOAT_FIELDS}
    row.update(arrivals="100", admitted="90", blocked_no_channel="10")
    row.update(blocked_qos="0", blocked_interference="0")

    def failed(workload, row, reference):
        result = workloads.OpResult(rows=[row], wall_s=1.0)
        return workloads.check_op(workload, 1, result, reference)[0]

    assert failed("fixed_erlang", row, {"1": row}) == 1  # blocking 0.0 is off Erlang-B
    near = dict(row, blocking_probability=repr(workloads.erlang_b(10, 5.0) + 0.002))
    assert failed("fixed_erlang", near, {"1": near}) == 0
    assert failed("sbac_wide", dict(row, admitted="89"), None) == 1


def test_reference_covers_every_pool_seed_of_every_workload():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        assert set(reference[workload]) == {str(seed) for seed in workloads.SEED_POOL}


def test_result_line_has_the_contract_keys(monkeypatch, capsys):
    tiny = functools.partial(harness.run_workload, scale=TINY, setup_probes=1)
    monkeypatch.setattr(harness, "run_workload", tiny)
    argv = ["--workload", "sbac_wide", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("end_to_end")
    block = json.loads(lines[-2])
    assert set(block["machine"]) >= {"nproc", "python", "numpy", "scipy"}
    assert block["code"]["src_lines"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "fixed_erlang", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
