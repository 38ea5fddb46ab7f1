"""Batch runner outputs and the command-line interface."""
from __future__ import annotations

import copy
import csv
import json
import os
import re
from concurrent.futures import Future

import pytest
import yaml

from dsasim import ConfigError
from dsasim.cli import main as cli_main
from dsasim.config import parse_config
from dsasim import runner
from dsasim.runner import RESULT_COLUMNS, expand_runs, run_scenario

from test_config import BAD_DOCUMENTS, BASE_DOCUMENT, doc


def scenario(**changes) -> dict:
    document = copy.deepcopy(BASE_DOCUMENT)
    document["traffic"]["horizon"] = 50.0
    document.update(changes)
    return document


def parse(document: dict):
    return parse_config(yaml.safe_dump(document))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_sweep_produces_one_row_per_cell(tmp_path):
    document = scenario(
        sweep={"parameter": "arrival_rate", "values": [0.1, 0.5, 1.0], "seeds_per_point": 5},
        strategy={"kind": ["FIXED", "DYNAMIC_SBAC"]},
    )
    config = parse(document)
    assert len(expand_runs(config)) == 30
    assert run_scenario(config, tmp_path / "out") == 0
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert len(rows) == 30
    assert list(rows[0].keys()) == list(RESULT_COLUMNS)


def test_results_are_byte_identical_across_invocations(tmp_path):
    document = scenario(
        sweep={"parameter": "arrival_rate", "values": [0.2, 1.0], "seeds_per_point": 2}
    )
    config = parse(document)
    assert run_scenario(config, tmp_path / "a") == 0
    assert run_scenario(config, tmp_path / "b") == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()


def test_manifest_records_completeness(tmp_path):
    config = parse(scenario())
    assert run_scenario(config, tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["artifact"] == "dsasim"
    assert all(run["status"] == "ok" for run in manifest["runs"])


def test_failed_run_preserves_partial_results(tmp_path, monkeypatch):
    # the run of the middle sweep point raises, the other points succeed; no
    # sweep value that SweepSpec accepts fails a run, so the failure is injected
    config = parse(scenario(sweep={"parameter": "users", "values": [1, 3, 2]}))
    execute_run = runner.execute_run

    def failing(config, spec, with_records=False):
        if spec.sweep_value == 3.0:
            raise RuntimeError("injected")
        return execute_run(config, spec, with_records)

    monkeypatch.setattr(runner, "execute_run", failing)
    assert run_scenario(config, tmp_path / "out") == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    failed = [run for run in manifest["runs"] if run["status"] == "failed"]
    assert [(run["sweep_value"], run["error"]) for run in failed] == [
        (3.0, "RuntimeError: injected")
    ]
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert len(rows) == 2  # the two good points survive


def test_a_dead_worker_fails_its_runs_and_keeps_every_finished_row(tmp_path, monkeypatch):
    # the worker that takes run 7 exits at once, which breaks the pool: run 7
    # and every run not yet finished fail with the pool's error, and every
    # finished run's row is written as a serial sweep writes it.  Forked
    # workers (the default on Linux) inherit the patch.
    document = scenario(
        sweep={"parameter": "arrival_rate", "values": [0.2, 0.6, 1.0], "seeds_per_point": 2},
        strategy={"kind": ["FIXED", "DYNAMIC_SBAC"]},
    )
    config = parse(document)
    assert run_scenario(config, tmp_path / "serial") == 0
    execute_run = runner.execute_run

    def dying(config, spec, with_records=False):
        if spec.index == 7:
            os._exit(3)
        return execute_run(config, spec, with_records)

    monkeypatch.setattr(runner, "execute_run", dying)
    monkeypatch.setenv("DSASIM_WORKERS", "2")
    assert run_scenario(config, tmp_path / "out") == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    runs = manifest["runs"]
    assert len(runs) == 12 and runs[7]["status"] == "failed"
    failed = [run for run in runs if run["status"] == "failed"]
    assert all(run["error"].startswith("BrokenProcessPool: ") for run in failed)
    serial = read_rows(tmp_path / "serial" / "results.csv")
    ok = [serial[run["index"]] for run in runs if run["status"] == "ok"]
    assert read_rows(tmp_path / "out" / "results.csv") == ok


def test_seed_override_changes_rows(tmp_path):
    config = parse(scenario())
    run_scenario(config, tmp_path / "a")
    run_scenario(config, tmp_path / "b", seed_override=999)
    row_a = read_rows(tmp_path / "a" / "results.csv")[0]
    row_b = read_rows(tmp_path / "b" / "results.csv")[0]
    assert row_a["seed"] == "42"
    assert row_b["seed"] == "999"
    assert row_a["arrivals"] != row_b["arrivals"]


@pytest.mark.parametrize("value", ["-3", "1.5", "seven"])
def test_cli_rejects_a_seed_override_that_is_not_an_integer_at_least_zero(
    value, tmp_path, capsys
):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario()))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", str(path), "--out", str(out_dir), "--seed-override", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--seed-override" in err and repr(value) in err
    assert not out_dir.exists()  # rejected before any run


@pytest.mark.parametrize("value", [-3, 1.5, True, "7"])
def test_library_rejects_a_seed_override_that_is_not_an_integer_at_least_zero(value, tmp_path):
    config = parse(scenario())
    message = rf"seed_override must be an integer >= 0, got {re.escape(repr(value))}"
    with pytest.raises(ConfigError, match=message):
        expand_runs(config, value)
    out_dir = tmp_path / "out"
    with pytest.raises(ConfigError, match=message):
        run_scenario(config, out_dir, seed_override=value)
    assert not out_dir.exists()  # rejected before any run or write


def test_verbose_writes_session_logs(tmp_path):
    config = parse(scenario())
    assert run_scenario(config, tmp_path / "out", verbose=True) == 0
    logs = list((tmp_path / "out" / "sessions").glob("*.csv"))
    assert len(logs) == 1
    rows = read_rows(logs[0])
    assert rows
    assert {"session_id", "outcome", "provider_id"} <= set(rows[0].keys())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verbose_writes_each_runs_log_before_the_next_result(workers, tmp_path, monkeypatch):
    # a run's records are written out and dropped as its result arrives, so
    # when run i + 1's result is taken every earlier run's log is on disk;
    # the files match those of a serial sweep byte for byte
    document = scenario(
        sweep={"parameter": "arrival_rate", "values": [0.2, 1.0], "seeds_per_point": 2},
        strategy={"kind": ["FIXED", "DYNAMIC_SBAC"]},
    )
    config = parse(document)
    runs = expand_runs(config)
    run_scenario(config, tmp_path / "serial", verbose=True)
    sessions = tmp_path / "out" / "sessions"
    outcomes = runner._outcomes
    taken = []

    def checking(jobs, count):
        for outcome in outcomes(jobs, count):
            index = outcome[0]
            written = sorted(path.name for path in sessions.glob("*.csv"))
            assert written == sorted(f"{runner._run_label(run)}.csv" for run in runs[:index])
            taken.append(index)
            yield outcome

    monkeypatch.setattr(runner, "_outcomes", checking)
    monkeypatch.setenv("DSASIM_WORKERS", workers)
    assert run_scenario(config, tmp_path / "out", verbose=True) == 0
    assert taken == list(range(len(runs))) and len(runs) == 8
    for name in ("results.csv", "manifest.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
    serial = sorted((tmp_path / "serial" / "sessions").glob("*.csv"))
    assert [path.name for path in serial] == sorted(path.name for path in sessions.glob("*.csv"))
    for path in serial:
        assert (sessions / path.name).read_bytes() == path.read_bytes()


# The session log of a physical-checks reuse run, recorded before the log was
# written from the SessionRecord fields: every outcome, empty cells for the
# blocked calls' provider and channel, powers re-solved as groups grew, and
# session 5 outliving the 40 s horizon.
GOLDEN_SESSION_LOG = [
    "session_id,arrival_time,end_time,home_provider_id,provider_id,channel_id,link_id,outcome,power",
    "0,1.2863810713394705,9.865737787138935,1,0,0,0,ADMITTED,0.0007812500000007813",
    "1,7.576470441596222,15.424853148658652,0,0,1,1,ADMITTED,0.0007812500000007813",
    "2,16.040994842832042,24.11071037410538,0,0,0,2,ADMITTED,0.0007812500000007813",
    "3,20.81596524176829,30.611163277971293,0,0,1,0,ADMITTED,0.0008607859876617553",
    "4,22.522483716434657,22.522483716434657,1,,,1,BLOCKED_QOS,0.0",
    "5,26.049289314847787,52.99241331405163,1,0,0,2,ADMITTED,0.0007937211469078623",
    "6,26.62510499091929,31.67343620090055,0,1,0,0,ADMITTED,0.0008607859876617553",
    "7,28.48562054548625,28.48562054548625,0,,,1,BLOCKED_QOS,0.0",
    "8,29.502425781725147,45.52959263526739,0,1,1,2,ADMITTED,0.0007937211469078623",
    "9,30.584981362078132,30.584981362078132,1,,,0,BLOCKED_NO_CHANNEL,0.0",
    "10,32.14547757512708,32.14547757512708,1,,,1,BLOCKED_QOS,0.0",
    "11,33.780605702934544,33.780605702934544,1,,,2,BLOCKED_INTERFERENCE,0.0",
    "12,35.330419820793,48.23570989424904,1,0,1,0,ADMITTED,0.0008607859876617553",
    "13,35.628379135367744,35.628379135367744,1,,,1,BLOCKED_QOS,0.0",
]


def test_verbose_session_log_is_golden(tmp_path):
    document = scenario(
        traffic=dict(BASE_DOCUMENT["traffic"], arrival_rate=0.2, horizon=40.0),
        strategy={"kind": "DYNAMIC_SBAC", "physical_checks": True, "channel_reuse": True},
    )
    topology = document["topology"]
    provider = topology["providers"][0]
    topology["providers"] = [
        dict(provider, channels=2),
        dict(provider, channels=2, base_frequency=4.5e8),
    ]
    topology["links"] = [
        dict(
            topology["links"][0], power=0.001, power_max=0.0018,
            tx=[300.0 * i, 0.0], rx=[300.0 * i + 200.0, 150.0],
        )
        for i in range(3)
    ]
    topology["primary_points"] = [{"position": [1000.0, 1000.0], "tolerance": 2.0e-12}]
    assert run_scenario(parse(document), tmp_path / "out", verbose=True) == 0
    log = tmp_path / "out" / "sessions" / "none_single_seed42_DYNAMIC_SBAC.csv"
    assert log.read_bytes() == "".join(line + "\r\n" for line in GOLDEN_SESSION_LOG).encode()


def test_users_sweep_scales_population_and_load(tmp_path):
    document = scenario(sweep={"parameter": "users", "values": [1, 4]})
    config = parse(document)
    assert run_scenario(config, tmp_path / "out") == 0
    rows = read_rows(tmp_path / "out" / "results.csv")
    arrivals = {row["sweep_value"]: int(row["arrivals"]) for row in rows}
    # four-user point offers 4x the arrival rate of the one-user point
    assert arrivals["4.0"] > arrivals["1.0"]


def test_parallel_workers_match_serial_output(tmp_path, monkeypatch):
    document = scenario(
        sweep={"parameter": "arrival_rate", "values": [0.2, 0.6], "seeds_per_point": 2}
    )
    config = parse(document)
    run_scenario(config, tmp_path / "serial")
    monkeypatch.setenv("DSASIM_WORKERS", "4")
    run_scenario(config, tmp_path / "parallel")
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "parallel" / "results.csv"
    ).read_bytes()


class InlineExecutor:
    """A process pool stand-in that runs each job at submit and records its
    size: a pool forks all its workers on its first submit."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, sizes", [("8", [2]), ("2", [2])])
def test_the_pool_starts_no_more_workers_than_runs(workers, sizes, tmp_path, monkeypatch):
    monkeypatch.setattr(InlineExecutor, "sizes", [])
    monkeypatch.setattr(runner, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setenv("DSASIM_WORKERS", workers)
    config = parse(scenario(sweep={"parameter": "arrival_rate", "values": [0.2, 0.6]}))
    assert run_scenario(config, tmp_path) == 0
    assert InlineExecutor.sizes == sizes


# -- CLI ------------------------------------------------------------------------


def test_cli_erlang_b(capsys):
    assert cli_main(["erlang-b", "--channels", "10", "--load", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.018384570"


@pytest.mark.parametrize("load", ["nan", "inf", "-inf"])
def test_cli_erlang_b_rejects_a_load_that_is_not_finite(load, capsys):
    assert cli_main(["erlang-b", "--channels", "10", f"--load={load}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: offered_load must be finite and >= 0")


def test_cli_validate_accepts_good_config(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario()))
    assert cli_main(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    document = scenario()
    del document["traffic"]["horizon"]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(document))
    assert cli_main(["validate", str(path)]) == 2
    assert "traffic.horizon" in capsys.readouterr().err


@pytest.mark.parametrize("name", BAD_DOCUMENTS)
def test_cli_validate_names_the_key_of_a_bad_document(name, tmp_path, capsys):
    overrides, message = BAD_DOCUMENTS[name]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc(**overrides)))
    assert cli_main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert re.search(message, err)
    assert "Traceback" not in err


def test_cli_validate_missing_file(capsys):
    assert cli_main(["validate", "nope.yaml"]) == 2
    assert capsys.readouterr().err == "error: nope.yaml: No such file or directory\n"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_config_path_that_is_a_directory(command, tmp_path, capsys):
    out_args = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli_main([command, str(tmp_path), *out_args]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


def test_cli_config_that_is_not_utf8_text(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(b"topology: \xff\n")
    assert cli_main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: invalid start byte at byte 10\n"
    )


def test_cli_run_output_path_that_is_a_file(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario()))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main(["run", str(path), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {taken}: File exists\n")
    assert "Traceback" not in err


def test_cli_run_end_to_end(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario()))
    out_dir = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "manifest.json").exists()
