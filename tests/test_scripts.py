"""Smoke runs of the command-line scripts in scripts/ with tiny arguments."""

import importlib.util
import json
import math
import os
import re
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


def test_snr_sweep_zero_step_is_a_usage_error():
    proc = _run("snr_sweep.py", "--step", "0", "--trials", "2")
    assert proc.returncode == 2
    assert "error: --step must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_snr_sweep_empty_snr_range_is_a_usage_error():
    proc = _run("snr_sweep.py", "--snr-min", "10", "--snr-max", "0", "--trials", "2")
    assert proc.returncode == 2
    assert "error: --snr-min must not exceed --snr-max" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_snr_sweep_piped_header_printed_once(monkeypatch):
    # 100 trials run in more than one process on a host with two usable cores; a child
    # that copied the header still in the stdout buffer would print it again
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    lines = run_script("snr_sweep.py", "--snr-min", "6", "--snr-max", "6", "--trials", "100")
    assert lines[0].startswith("steady-state MSE") and lines[1].split() == ["snr_db", "proposed"]
    assert len(lines) == 3 and lines[2].split()[0] == "6.0"


def test_bound_experiment_zero_trials_is_a_usage_error():
    proc = _run("bound_experiment.py", "--trials", "0")
    assert proc.returncode == 2
    assert "error: trials must lie in [1, inf], got 0" in proc.stderr
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
                       "--pairs", "1", "--seconds", "0.1", "--tiny")
    assert lines[0].startswith("workload cli-runs  pairs 1")
    assert lines[1].startswith("parent: failed 0 of ") and lines[1].endswith("correct True")
    assert lines[2].startswith("change: failed 0 of ") and lines[2].endswith("correct True")
    summaries = [line for line in lines if "change/parent" in line]
    assert len(summaries) == 3
    assert all("wins " in line and "/1  gain holds " in line for line in summaries)
    for name in ("tf_per_ref_s", "peak_rss_mb", "setup_s"):
        assert any(line.startswith(f"{name} (") for line in lines)


def _bench_pairs_report(monkeypatch, capsys, tmp_path, values, seed=101):
    """Run bench_pairs.main in process, its bench_run stubbed to return
    values[metric][side][pair]; return the (side, pair) runs in call order and, per
    metric, the reported wins and gain verdict."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    roots = {tmp_path.resolve(): "parent", bench_pairs.ROOT: "change"}
    runs = []

    def canned_run(root, workload, run_seed, seconds, tiny):
        side, pair = roots[root], run_seed - seed
        runs.append((side, pair))
        metrics = {name: {"value": v[side][pair]} for name, v in values.items()}
        return {"failed": 0, "attempted": 1, "correct": True, "metrics": metrics}

    pairs = len(values["tf_per_ref_s"]["parent"])
    monkeypatch.setattr(bench_pairs, "bench_run", canned_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(tmp_path), "--workload",
                                      "cli-runs", "--pairs", str(pairs), "--seed", str(seed)])
    bench_pairs.main()
    report, metric = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.endswith(" is better)"):
            metric = line.split()[0]
        elif "gain holds" in line:
            wins = re.search(r"wins (\d+)/(\d+)", line)
            assert int(wins[2]) == pairs
            report[metric] = int(wins[1]), line.endswith("gain holds True")
    return runs, report


def _canned(tf_parent, tf_change, lower_parent=1.0, lower_change=1.0):
    """Per-metric canned values: tf_per_ref_s as given, the lower-is-better metrics flat."""
    n = len(tf_parent)
    lower = {"parent": [lower_parent] * n, "change": [lower_change] * n}
    return {"tf_per_ref_s": {"parent": tf_parent, "change": tf_change},
            "peak_rss_mb": lower, "setup_s": lower}


def test_bench_pairs_alternates_sides_parent_first_on_even_pairs(monkeypatch, capsys, tmp_path):
    runs, _ = _bench_pairs_report(monkeypatch, capsys, tmp_path, _canned([1.0] * 4, [1.0] * 4))
    assert runs == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                    ("parent", 2), ("change", 2), ("change", 3), ("parent", 3)]


def test_bench_pairs_gain_needs_nine_tenths_of_wins_and_a_gap_wider_than_the_quartiles(
        monkeypatch, capsys, tmp_path):
    parent = [100.0 + i for i in range(10)]    # quartiles 102.25 and 106.75, median 104.5
    far = [p + 20.0 for p in parent]
    cases = [
        ([99.0] + far[1:], (9, True)),          # 9/10 wins, medians 20 apart
        ([99.0, 100.0] + far[2:], (8, False)),  # 8/10 wins, medians still 20 apart
        ([p + 1.0 for p in parent], (10, False)),  # every win, medians 1 apart
    ]
    for change, expected in cases:
        _, report = _bench_pairs_report(monkeypatch, capsys, tmp_path, _canned(parent, change))
        assert report["tf_per_ref_s"] == expected


def test_bench_pairs_lower_is_better_counts_a_lower_value_as_a_win(monkeypatch, capsys, tmp_path):
    values = _canned([1.0] * 10, [1.0] * 10)
    values["peak_rss_mb"] = {"parent": [10.0] * 10, "change": [9.0] * 10}
    values["setup_s"] = {"parent": [1.0] * 10, "change": [1.5] * 10}
    _, report = _bench_pairs_report(monkeypatch, capsys, tmp_path, values)
    assert report == {"tf_per_ref_s": (0, False), "peak_rss_mb": (10, True), "setup_s": (0, False)}


def test_src_size_counts_lines_statements_and_tokens(tmp_path):
    # a docstring, a comment and blank lines count as lines only
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\nx = 1\nif x:\n    y = (x,\n         2)\n')
    assert run_script("src_size.py", str(tmp_path)) == ["lines 7", "statements 3", "tokens 13"]
    lines = run_script("src_size.py")
    assert [line.split()[0] for line in lines] == ["lines", "statements", "tokens"]
    assert all(int(line.split()[1]) > 0 for line in lines)
