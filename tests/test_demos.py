"""The demo scripts run against the library and print their pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The sha256 of each demo's stdout: every number a demo prints is seeded.
# Demo 03 is left out: it only drives `run_replications`, which
# tests/test_harness.py covers, and takes about 20 s.
DEMOS = {
    "01_noisy_oracles_and_kw.py":
        "42a76b5b7cc6f4b310eaaade24ce138260d100d84028469c5a2426904c4f153f",
    "02_perturbation_tradeoff.py":
        "e3a0f027b154c33f4ec60a198d2842f063245d955c3e9558f73897fb1cd76449",
    "04_highdim_spsa_vs_corcfd.py":
        "3e6c2034f12406cecefa649f705fad40280948c4c6af16fd979da31b20868f09",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # -W error: any warning fails the demo, as pyproject's filterwarnings fails
    # a RuntimeWarning raised in-process.
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMOS[name], proc.stdout
