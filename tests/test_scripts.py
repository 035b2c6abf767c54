"""Smoke runs of the command-line scripts in scripts/ with tiny arguments."""

import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(name: str, *args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the script of that name in root's scripts/ with this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a RuntimeWarning fails a script as pyproject.toml's filter fails a test
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(root / "scripts" / name), *args],
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


@pytest.mark.parametrize("trial", ["-1", str(2**64)])
def test_run_tracking_demo_trial_outside_64_bits_is_a_usage_error(trial):
    # the rng keys would alias it: 2**64 ran trial 0, and -1 trial 2**64 - 1
    proc = _run("run_tracking_demo.py", "--preset", "fig9", "--trial", trial)
    assert proc.returncode == 2
    assert "--trial must lie in [0, 2**64)" in proc.stderr
    assert proc.stdout == ""


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
    assert "error: scheme must be one of ('proposed', 'codebook', 'abp'), got 'bogus'" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_snr_sweep_reads_the_scheme_list_as_track_compare_does():
    # each name stripped and empty ones dropped
    lines = run_script("snr_sweep.py", "--snr-min", "6", "--snr-max", "6", "--trials", "2",
                       "--schemes", "proposed, abp,")
    assert lines[1].split() == ["snr_db", "proposed", "abp"]


@pytest.mark.parametrize("schemes", ["", " , ,"])
def test_snr_sweep_list_without_a_scheme_is_a_usage_error(schemes):
    proc = _run("snr_sweep.py", "--trials", "2", "--schemes", schemes)
    assert proc.returncode == 2
    assert "error: --schemes names no scheme" in proc.stderr
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


@pytest.mark.parametrize("args, message", [
    (["--step", "inf"], "give a grid numpy cannot build: arange: cannot compute length"),
    (["--step", "1e-300"], "give a grid numpy cannot build: Maximum allowed size exceeded"),
    # 1e308 + 2.0/2 rounds to 1e308, so arange's half-open range is empty
    (["--snr-min", "1e308", "--snr-max", "1e308"], "give a grid without a point"),
], ids=["infinite-step", "tiny-step", "max-plus-half-step-rounds-to-max"])
def test_snr_sweep_grid_without_a_buildable_point_is_a_usage_error(args, message):
    proc = _run("snr_sweep.py", "--trials", "2", *args)
    assert proc.returncode == 2
    assert f"error: --snr-min, --snr-max and --step {message}" in proc.stderr
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


def test_shard_crossover_prints_a_ratio_per_row():
    lines = run_script("shard_crossover.py", "--tiny")
    assert lines[0].startswith("cores ")
    assert lines[1].split() == ["row", "tf/proc", "trials", "frames", "1", "proc", "ms", "2",
                                "proc", "ms", "ratio"]
    rows = [line.rsplit(None, 6) for line in lines[2:]]
    assert [r[0] for r in rows] == ["fig9 8x8", "fig4a 8x8", "fig6 8x16", "fig6 8x16 2-trial"]
    for _, per_process, trials, frames, one, two, ratio in rows:
        # each of the two processes gets the row's trial-frames
        assert int(trials) * int(frames) == 2 * int(per_process)
        assert float(one) > 0 and float(two) > 0 and math.isfinite(float(ratio))


def test_shard_crossover_bad_per_process_is_a_usage_error():
    proc = _run("shard_crossover.py", "--per-process", "100,x")
    assert proc.returncode == 2
    assert "error: --per-process must be comma-separated integers" in proc.stderr
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
    verdicts = [line for line in lines if "  verdict " in line]
    assert len(verdicts) == 3
    assert all(re.search(r"verdict (regression|unresolved|no regression)$", v) for v in verdicts)
    for name in ("tf_per_ref_s", "peak_rss_mb", "setup_s"):
        assert any(line.startswith(f"{name} (") for line in lines)
    # cli-runs runs every scheme, so each has its line of medians
    schemes = [line.split()[0] for line in lines if " ratio " in line]
    assert schemes == ["proposed.tf_per_ref_s", "abp.tf_per_ref_s", "codebook.tf_per_ref_s"]


def test_bench_pairs_unknown_workload_is_a_usage_error():
    # bench/run.py would reject the name only after the first parent run
    proc = _run("bench_pairs.py", "--parent", str(ROOT), "--workload", "fig9", "--pairs", "1")
    assert proc.returncode == 2
    assert ("error: --workload must be one of fig9-sweep, detect-8x16, cli-runs, got 'fig9'"
            in proc.stderr)
    assert "Traceback" not in proc.stderr and not proc.stdout


def _parent_checkout(root: Path, run_py: str = "") -> Path:
    """A stand-in parent checkout at root: this BENCHMARK.json and the given bench/run.py."""
    (root / "bench").mkdir()
    (root / "bench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return root


@pytest.mark.parametrize("missing", ["bench/run.py", "BENCHMARK.json"])
def test_bench_pairs_parent_without_the_benchmark_is_a_usage_error(tmp_path, missing):
    (_parent_checkout(tmp_path) / missing).unlink()
    proc = _run("bench_pairs.py", "--parent", str(tmp_path), "--workload", "cli-runs",
                "--pairs", "1")
    assert proc.returncode == 2
    assert f"error: --parent {tmp_path} has no {missing}" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
def test_bench_pairs_seconds_not_finite_and_positive_is_a_usage_error(tmp_path, seconds):
    # a run of the stand-in parent, which goes first, would exit with code 1, not 2
    _parent_checkout(tmp_path, "import sys\nsys.exit('a run started')\n")
    proc = _run("bench_pairs.py", "--parent", str(tmp_path), "--workload", "cli-runs",
                "--pairs", "1", f"--seconds={seconds}")
    assert proc.returncode == 2
    assert f"error: --seconds must be finite and positive, got {float(seconds)!r}" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_bench_pairs_failed_run_names_side_pair_and_seed_and_prints_its_stderr(tmp_path):
    _parent_checkout(tmp_path, "import sys\nsys.exit('no such operation')\n")
    proc = _run("bench_pairs.py", "--parent", str(tmp_path), "--workload", "cli-runs",
                "--pairs", "2", "--seed", "7")
    # pair 1 runs the parent first
    assert proc.returncode == 1
    assert "the parent run of pair 1 (seed 7) exited with code 1; its stderr:" in proc.stderr
    assert "no such operation" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def _bench_record_checkout(root: Path, run_py: str) -> Path:
    """A stand-in checkout at root (_parent_checkout) with a copy of bench_record.py, which
    runs the bench/run.py of the checkout it sits in."""
    _parent_checkout(root, run_py)
    (root / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_record.py", root / "scripts")
    return root


@pytest.mark.parametrize("content", [None, "not xml"], ids=["missing", "not-xml"])
def test_bench_record_unreadable_junit_is_a_usage_error_before_any_run(tmp_path, content):
    # a run of this checkout would exit with code 1, not 2
    _bench_record_checkout(tmp_path, "import sys\nsys.exit('a run started')\n")
    junit, out = tmp_path / "tier1.xml", tmp_path / "BENCH_0.json"
    if content is not None:
        junit.write_text(content)
    proc = _run("bench_record.py", "--out", str(out), "--junit", str(junit), root=tmp_path)
    assert proc.returncode == 2
    assert f"error: --junit {junit}: " in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert not out.exists()


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
def test_bench_record_seconds_not_finite_and_positive_is_a_usage_error(tmp_path, seconds):
    # a run of this checkout would exit with code 1, not 2
    _bench_record_checkout(tmp_path, "import sys\nsys.exit('a run started')\n")
    junit, out = tmp_path / "tier1.xml", tmp_path / "BENCH_0.json"
    junit.write_text("<testsuites/>")
    proc = _run("bench_record.py", "--out", str(out), "--junit", str(junit),
                f"--seconds={seconds}", root=tmp_path)
    assert proc.returncode == 2
    assert f"error: --seconds must be finite and positive, got {float(seconds)!r}" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert not out.exists()


def test_bench_record_failed_run_names_workload_and_trace_and_prints_its_stderr(tmp_path):
    _bench_record_checkout(tmp_path, "import sys\nsys.exit('no such operation')\n")
    junit, out = tmp_path / "tier1.xml", tmp_path / "BENCH_0.json"
    junit.write_text("<testsuites/>")
    proc = _run("bench_record.py", "--out", str(out), "--junit", str(junit), root=tmp_path)
    # BENCHMARK.json's first workload, run untraced first
    assert proc.returncode == 1
    assert "the fig9-sweep run at --trace 0 exited with code 1; its stderr:" in proc.stderr
    assert "no such operation" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert not out.exists()


def _bench_pairs_report(monkeypatch, capsys, tmp_path, values, seed=101, schemes=None):
    """Run bench_pairs.main in process, its bench_run stubbed to return
    values[metric][side][pair] and, as each scheme's printed tf_per_ref_s,
    schemes[scheme][side][pair] (None: not printed); return the (side, pair) runs in call
    order; per metric, the reported wins and gain verdict, and per scheme line, the
    metric it follows, the two medians and their ratio; and per metric, the no-regression
    verdict."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    if not (tmp_path / "BENCHMARK.json").exists():
        _parent_checkout(tmp_path)
    roots = {tmp_path.resolve(): "parent", bench_pairs.ROOT: "change"}
    runs = []

    def canned_run(root, workload, run_seed, seconds, tiny):
        side, pair = roots[root], run_seed - seed
        runs.append((side, pair))
        metrics = {name: {"value": v[side][pair]} for name, v in values.items()}
        printed = {s: v[side][pair] for s, v in (schemes or {}).items() if v[side][pair] is not None}
        return {"failed": 0, "attempted": 1, "correct": True, "metrics": metrics,
                "schemes": printed}

    pairs = len(values["tf_per_ref_s"]["parent"])
    monkeypatch.setattr(bench_pairs, "bench_run", canned_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(tmp_path), "--workload",
                                      "cli-runs", "--pairs", str(pairs), "--seed", str(seed)])
    bench_pairs.main()
    report, verdicts, metric = {}, {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.endswith(" is better)"):
            metric = line.split()[0]
        elif m := re.search(r"  verdict (.+)$", line):
            verdicts[metric] = m[1]
        elif "gain holds" in line:
            wins = re.search(r"wins (\d+)/(\d+)", line)
            assert int(wins[2]) == pairs
            report[metric] = int(wins[1]), line.endswith("gain holds True")
        elif m := re.fullmatch(r"  (\S+)  parent median (\S+)  change median (\S+)  ratio (\S+)",
                               line):
            report[m[1]] = (metric, *map(float, m.groups()[1:]))
    return runs, report, verdicts


def _canned(tf_parent, tf_change, lower_parent=1.0, lower_change=1.0):
    """Per-metric canned values: tf_per_ref_s as given, the lower-is-better metrics flat."""
    n = len(tf_parent)
    lower = {"parent": [lower_parent] * n, "change": [lower_change] * n}
    return {"tf_per_ref_s": {"parent": tf_parent, "change": tf_change},
            "peak_rss_mb": lower, "setup_s": lower}


def test_bench_pairs_alternates_sides_parent_first_on_even_pairs(monkeypatch, capsys, tmp_path):
    runs, _, _ = _bench_pairs_report(monkeypatch, capsys, tmp_path, _canned([1.0] * 4, [1.0] * 4))
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
        _, report, _ = _bench_pairs_report(monkeypatch, capsys, tmp_path, _canned(parent, change))
        assert report["tf_per_ref_s"] == expected


def test_bench_pairs_lower_is_better_counts_a_lower_value_as_a_win(monkeypatch, capsys, tmp_path):
    values = _canned([1.0] * 10, [1.0] * 10)
    values["peak_rss_mb"] = {"parent": [10.0] * 10, "change": [9.0] * 10}
    values["setup_s"] = {"parent": [1.0] * 10, "change": [1.5] * 10}
    _, report, _ = _bench_pairs_report(monkeypatch, capsys, tmp_path, values)
    assert report == {"tf_per_ref_s": (0, False), "peak_rss_mb": (10, True), "setup_s": (0, False)}


def test_bench_pairs_no_regression_verdict_reads_each_metrics_bound(monkeypatch, capsys, tmp_path):
    # bounds: tf_per_ref_s 0.25 (higher is better), peak_rss_mb 0.1 and setup_s 0.25 (lower)
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]    # quartiles 80 and 120: spread 0.4 of the median
    cases = [
        # (tf parent, tf change, rss change, setup change) and the three verdicts
        ([100.0] * 5, [70.0] * 5, 11.5, 1.0, ("regression", "regression", "no regression")),
        ([100.0] * 5, [75.0] * 5, 11.0, 1.3, ("no regression", "no regression", "regression")),
        (wide, [100.0] * 5, 10.5, 1.25, ("unresolved", "no regression", "no regression")),
        (wide, [141.0] * 5, 9.0, 0.5, ("no regression", "no regression", "no regression")),
        (wide, [60.0] * 5, 10.0, 1.0, ("regression", "no regression", "no regression")),
    ]
    for tf_parent, tf_change, rss, setup, expected in cases:
        values = _canned(tf_parent, tf_change)
        values["peak_rss_mb"] = {"parent": [10.0] * 5, "change": [rss] * 5}
        values["setup_s"] = {"parent": [1.0] * 5, "change": [setup] * 5}
        _, _, verdicts = _bench_pairs_report(monkeypatch, capsys, tmp_path, values)
        assert tuple(verdicts.values()) == expected, (tf_change, rss, setup)
        assert list(verdicts) == ["tf_per_ref_s", "peak_rss_mb", "setup_s"]


def test_bench_pairs_prints_the_medians_of_each_scheme_every_run_printed(
        monkeypatch, capsys, tmp_path):
    schemes = {
        "proposed": {"parent": [10.0, 30.0, 20.0], "change": [22.0, 21.0, 20.0]},
        "abp": {"parent": [5.0] * 3, "change": [4.0] * 3},
        "codebook": {"parent": [8.0] * 3, "change": [12.0, 12.0, None]},  # one run lacks it
    }
    _, report, _ = _bench_pairs_report(monkeypatch, capsys, tmp_path,
                                       _canned([1.0] * 3, [1.0] * 3), schemes=schemes)
    # under tf_per_ref_s, with no verdict; the gated metrics' verdicts are as before
    assert report == {"tf_per_ref_s": (0, False),
                      "proposed.tf_per_ref_s": ("tf_per_ref_s", 20.0, 21.0, 1.05),
                      "abp.tf_per_ref_s": ("tf_per_ref_s", 5.0, 4.0, 0.8),
                      "peak_rss_mb": (0, False), "setup_s": (0, False)}


def test_src_size_counts_lines_statements_and_tokens(tmp_path):
    # a docstring, a comment and blank lines count as lines only
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\nx = 1\nif x:\n    y = (x,\n         2)\n')
    assert run_script("src_size.py", str(tmp_path)) == ["lines 7", "statements 3", "tokens 13"]
    lines = run_script("src_size.py")
    assert [line.split()[0] for line in lines] == ["lines", "statements", "tokens"]
    assert all(int(line.split()[1]) > 0 for line in lines)


@pytest.mark.parametrize("name", ["missing", "empty"])
def test_src_size_dir_without_python_files_is_a_usage_error(tmp_path, name):
    # a zero size from a mistyped path would pass for a measurement
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("x = 1\n")
    proc = _run("src_size.py", str(tmp_path / name))
    assert proc.returncode == 2
    assert "error: no *.py file under" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_frame_cost_prints_a_cost_per_row():
    lines = run_script("frame_cost.py", "--tiny")
    assert lines[1].split() == ["row", "scheme", "trials", "frames", "us/tf", "minflt/tf"]
    rows = [line.split() for line in lines[2:]]
    assert [(r[2], int(r[3]), int(r[4])) for r in rows] == [
        (scheme, trials, 5) for _ in range(2) for scheme in ("proposed", "codebook", "abp")
        for trials in (1, 2)]
    assert all(float(r[5]) > 0 for r in rows)
    assert all(float(r[6]) >= 0 for r in rows)
