"""Smoke runs of the command-line scripts in scripts/ with tiny arguments."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name: str, *args: str) -> list[str]:
    proc = _run(name, *args)
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


def test_snr_sweep_unknown_scheme_is_a_usage_error():
    proc = _run("snr_sweep.py", "--trials", "2", "--schemes", "proposed,bogus")
    assert proc.returncode == 2
    assert "error: unknown scheme 'bogus'" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_bench_record_writes_every_workload_and_criterion(tmp_path):
    junit = tmp_path / "tier1.xml"
    junit.write_text(
        '<testsuites><testsuite name="pytest" tests="3">'
        '<testcase classname="tests.test_acceptance" name="test_criterion_10_determinism" time="2.5"/>'
        '<testcase classname="tests.test_acceptance" name="test_criterion_2_ekf_algebra" time="0.25"/>'
        '<testcase classname="tests.test_cli" name="test_presets_list" time="0.01"/>'
        '</testsuite></testsuites>'
    )
    out = tmp_path / "BENCH_0.json"
    run_script("bench_record.py", "--out", str(out), "--junit", str(junit),
               "--tiny", "--seconds", "0.1")
    record = json.loads(out.read_text())
    assert record["tier1"]["criterion_s"] == {"C2": 0.25, "C10": 2.5}
    assert record["tier1"]["tests"] == 3
    assert set(record["workloads"]) == {"fig9-sweep", "detect-8x16", "cli-runs"}
    for runs in record["workloads"].values():
        timed, traced = runs["trace0"], runs["trace1"]
        for run in (timed, traced):
            assert run["correct"] and run["failed"] == 0
            assert run["conditions"]["src_loc"] > 0
        assert {"tf_per_ref_s", "peak_rss_mb", "setup_s"} <= set(timed["metrics"])
        assert "rng.stream.calls" in traced["metrics"]


def test_bench_pairs_reports_each_metric_with_wins():
    # this checkout as both sides: the script only has to run and report
    lines = run_script("bench_pairs.py", "--parent", str(ROOT), "--workload", "cli-runs",
                       "--pairs", "2", "--seconds", "0.1", "--tiny")
    assert lines[0].startswith("workload cli-runs  pairs 2")
    assert lines[1].startswith("parent: failed 0 of ") and lines[1].endswith("correct True")
    assert lines[2].startswith("change: failed 0 of ") and lines[2].endswith("correct True")
    summaries = [line for line in lines if "change/parent" in line]
    assert len(summaries) == 3
    assert all("wins " in line and "/2  gain holds " in line for line in summaries)
    for name in ("tf_per_ref_s", "peak_rss_mb", "setup_s"):
        assert any(line.startswith(f"{name} (") for line in lines)


def test_src_size_counts_lines_statements_and_tokens(tmp_path):
    # a docstring, a comment and blank lines count as lines only
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\nx = 1\nif x:\n    y = (x,\n         2)\n')
    assert run_script("src_size.py", str(tmp_path)) == ["lines 7", "statements 3", "tokens 13"]
    lines = run_script("src_size.py")
    assert [line.split()[0] for line in lines] == ["lines", "statements", "tokens"]
    assert all(int(line.split()[1]) > 0 for line in lines)
