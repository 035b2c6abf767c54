"""Smoke runs of the command-line scripts in scripts/ with tiny arguments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()


def test_bound_experiment_prints_a_finite_bound_per_frame():
    lines = run_script("bound_experiment.py", "--trials", "2")
    assert lines[1].split() == ["frame", "mse", "bound", "below"]
    rows = [line.split() for line in lines[2:52]]
    assert [int(r[0]) for r in rows] == list(range(1, 51))
    assert all(math.isfinite(float(r[2])) and float(r[2]) > 0 for r in rows)
    assert lines[-1].startswith("MSE below bound after frame 3:")


@pytest.mark.parametrize("scheme", ["proposed", "abp"])
def test_run_tracking_demo_prints_every_frame(scheme):
    lines = run_script("run_tracking_demo.py", "--preset", "fig9", "--scheme", scheme, "--trial", "1")
    assert lines[0].startswith(f"preset=fig9 scheme={scheme} trial=1 frames=50")
    rows = [line.split() for line in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, 51))


def test_snr_sweep_prints_one_row_per_snr():
    lines = run_script("snr_sweep.py", "--snr-min", "6", "--snr-max", "10", "--step", "4",
                       "--trials", "2", "--schemes", "proposed,codebook")
    assert lines[1].split() == ["snr_db", "proposed", "codebook"]
    rows = [line.split() for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [6.0, 10.0]
    assert all(math.isfinite(float(v)) and float(v) > 0 for r in rows for v in r[1:])
