"""Smoke test: the demo scripts run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Demo 03 is left out: it only drives `run_replications`, which
# tests/test_harness.py covers, and takes about 20 s.
DEMOS = ["01_noisy_oracles_and_kw.py", "02_perturbation_tradeoff.py",
         "04_highdim_spsa_vs_corcfd.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
