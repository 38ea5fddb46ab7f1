"""The package's public names and its declared dependencies."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dsasim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# distribution name -> top-level module, where the two differ
MODULE_OF = {"pyyaml": "yaml"}


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from dsasim import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(dsasim.__all__) <= namespace.keys()
    assert len(set(dsasim.__all__)) == len(dsasim.__all__)


def test_public_names_are_exactly_these():
    # a name added to the package, or a test-only reference moved back into
    # it, must be added here on purpose
    assert set(dsasim.__all__) == {
        "__version__",
        "ConfigError", "DsasimError", "StateError",
        "GainMatrices", "NetworkTopology", "PrimaryReceivingPoint",
        "SecondaryLink", "ServiceProvider", "SpectrumChannel", "gains_from_positions",
        "Outcome", "QosConfig", "SessionRecord", "Simulation", "Strategy", "run_simulation",
        "MetricsReport", "erlang_b",
        "Modulation", "link_arrays", "link_sinr", "qos_met", "sinr_target_from_ber",
        "SbacConfig", "select_best_channel",
        "TrafficSpec", "build_event_stream",
    }


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, dsasim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == "[]"


def third_party_imports() -> set[str]:
    names = set()
    for path in sorted((SRC / "dsasim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names and name != "dsasim"}


def test_declared_dependencies_are_exactly_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    modules = set()
    for requirement in declared:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        modules.add(MODULE_OF.get(name, name))
    assert modules == third_party_imports() == {"numpy", "yaml"}
