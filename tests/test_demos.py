"""The fast demos run to completion: 01 drives the array-level qos API
(link_arrays, link_sinr, qos_met, coupling_scale, group_powers), 02 live
pools and selection and 04 the event loop.  03 and 05 take about 20 s
together and are left out."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_sinr_power_control.py", "02_channel_selection.py", "04_fixed_vs_dynamic.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
