"""Tests of the benchmark itself.  Run with `python -m pytest bench`; the
repository's own test run collects only tests/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
APPLIES = {
    "fig9-sweep": ["abp.tf_per_s", "codebook.tf_per_s"],
    "detect-8x16": [],
    "cli-runs": ["abp.tf_per_s", "codebook.tf_per_s", "op_ms.p50", "op_ms.p90"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = {line.split()[0]: line.split()[-1] for line in out.splitlines() if line.startswith("  ")}
    expected = {m["name"]: m["unit"] for m in declared}
    if not trace:
        expected.update({n: run.END_TO_END_UNITS[n] for n in APPLIES[workload] + ["failed_frac"]})
    assert {n: printed.get(n) for n in expected} == expected


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for p in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-runs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


class _Perturbed(workloads.Fig9Sweep):
    def output(self, op, result):
        data = super().output(op, result)
        i = data.index(b"per_frame_mse") + len(b'per_frame_mse": [\n    ')
        return data[:i] + (b"1" if data[i:i + 1] != b"1" else b"2") + data[i + 1:]


def _recorded():
    return json.loads((ROOT / "bench" / "digests.json").read_text())


def test_recorded_output_passes(tmp_path):
    wl = workloads.Fig9Sweep(tmp_path, tiny=True)
    runner = run.Runner(wl, workloads.Checker(_recorded()))
    for op in wl.warmup():
        assert op.key in _recorded()["ops"]
        runner.execute(op)
    assert (runner.attempted, runner.failed) == (3, 0)


def test_perturbed_output_is_counted_as_failed(tmp_path):
    wl = _Perturbed(tmp_path, tiny=True)
    runner = run.Runner(wl, workloads.Checker(_recorded()))
    runner.execute(wl.warmup()[0])
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "recorded digest" in runner.problems[0]


def test_malformed_output_fails_without_a_recorded_digest(tmp_path):
    wl = workloads.Fig9Sweep(tmp_path, tiny=True)
    op = wl.warmup()[0]
    data = wl.output(op, wl.run(op))
    checker = workloads.Checker({"schema_version": _recorded()["schema_version"]})
    assert checker.check(wl, op, data)[0] == []
    nan = data.replace(b'"per_frame_mse": [\n    ', b'"per_frame_mse": [\n    NaN, ', 1)
    assert any("per_frame_mse" in p for p in checker.check(wl, op, nan)[0])
    no_schema = data.replace(b'"schema_version"', b'"schema"')
    assert any("schema_version" in p for p in checker.check(wl, op, no_schema)[0])


def test_tracing_wrappers_leave_beamtrack_as_found(tmp_path):
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.same_objects(before, tracing.snapshot())
        wl = workloads.CliRuns(tmp_path, tiny=True)
        wl.setup()
        op = wl.warmup()[0]
        wl.output(op, wl.run(op))
    finally:
        tracer.uninstall()
    assert tracing.same_objects(before, tracing.snapshot())
    assert tracer.calls["cli.main"] == 1 and tracer.calls["rng.stream"] > 0
