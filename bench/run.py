"""Benchmark of beamtrack: trial-frame throughput, CLI latency, per-layer tracing.

Run from the root of a checkout:

    python3 bench/run.py --workload fig9-sweep --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of the current directory, in this one
process, with one BLAS thread.  ``--trace 0`` measures for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` runs a fixed list of
operations (set by seed and seconds) once untraced and once traced, and
reports the per-layer metrics and the tracing overhead.  Every operation's
output is checked; the last line of stdout is the JSON result.

    python3 bench/run.py --record-digests

re-records ``bench/digests.json``, the sha256 of each operation's output at
seed 0.  Do it only in a change that bumps ``SCHEMA_VERSION`` or the random
number generator, and say why in CHANGES.md.
"""

import os

# before numpy is imported, here and in the set-up processes
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
# the CLI would otherwise write wherever this names
os.environ.pop("BEAMTRACK_OUT", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
WORKLOAD_NAMES = ("fig9-sweep", "detect-8x16", "cli-runs")
SETUP_REPEATS = 5
# a timed run stops starting operations after this long, whatever else holds
HARD_STOP_S = 120.0
# one benchmark thread plus this much other load flags a run as overlapped
OVERLAP_LOAD = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "tf_per_s": "1/s",
    "proposed.tf_per_s": "1/s",
    "abp.tf_per_s": "1/s",
    "codebook.tf_per_s": "1/s",
    "tf_per_ref_s": "1/ref_s",
    "proposed.tf_per_ref_s": "1/ref_s",
    "abp.tf_per_ref_s": "1/ref_s",
    "codebook.tf_per_ref_s": "1/ref_s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


class ProgramMissing(Exception):
    pass


def load_program(root: Path) -> None:
    """Import beamtrack from root/src and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "beamtrack" / "__init__.py").is_file():
        raise ProgramMissing(f"no beamtrack package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import beamtrack

    if Path(beamtrack.__file__).resolve().parent != src / "beamtrack":
        raise ProgramMissing(f"beamtrack was imported from {beamtrack.__file__}, not {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="few trials per operation and no minimum op count (for tests)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and warm up, print one line, exit (set-up timing)")
    ap.add_argument("--record-digests", action="store_true",
                    help="re-record bench/digests.json at seed 0")
    args = ap.parse_args(argv)
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")
    return args


@contextlib.contextmanager
def workdir(root: Path):
    """A scratch directory inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@dataclasses.dataclass
class Sample:
    op: object
    seconds: float
    digest: str | None
    slowdown: float = 1.0       # host slowdown the reference kernel saw next to it


class Runner:
    """Runs and checks operations of one workload, tallying failures."""

    def __init__(self, workload, checker, tracer=None):
        self.workload = workload
        self.checker = checker
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, op) -> Sample:
        t0 = perf_counter()
        try:
            result = self.workload.run(op)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        digest = None
        if error:
            probs = [error]
        else:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                data = self.workload.output(op, result)
                probs, digest = self.checker.check(self.workload, op, data)
        self.attempted += 1
        if probs:
            self.failed += 1
            self.problems.append(f"{op.key}: {'; '.join(probs)}")
        return Sample(op, elapsed, digest)


def make_runner(args, root: Path, path: Path, tracer=None) -> Runner:
    import workloads

    workload = workloads.WORKLOADS[args.workload](path, tiny=args.tiny)
    workload.setup()
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    runner = Runner(workload, workloads.Checker(recorded), tracer)
    for op in workload.warmup():
        runner.execute(op)
    return runner


def timed_loop(runner: Runner, seed: int, seconds: float) -> list[Sample]:
    """Run operations until `seconds` have passed, stopping between groups,
    after at least one group."""
    wl = runner.workload
    samples: list[Sample] = []
    before = reference.slowdown(1.0)
    start = perf_counter()
    for op in wl.ops(seed):
        n = len(samples)
        elapsed = perf_counter() - start
        if elapsed >= HARD_STOP_S or (
            n % wl.group == 0 and n >= max(wl.min_ops, wl.group) and elapsed >= seconds
        ):
            break
        sample = runner.execute(op)
        after = reference.slowdown(sample.seconds)
        # the kernel runs on both sides of every operation
        sample.slowdown = (before + after) / 2
        before = after
        samples.append(sample)
    return samples


def throughput(samples, scheme=None, per_ref=False):
    """Trial-frames per second of operation time, or per reference-second."""
    sel = [s for s in samples if scheme is None or s.op.scheme == scheme]
    busy = sum(s.seconds / s.slowdown if per_ref else s.seconds for s in sel)
    return sum(s.op.trial_frames for s in sel) / busy if busy else None


def measure_setup(args, root: Path):
    """Median wall time from process start to ready, over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times, attempted, failed, problems = [], 0, 0, []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        try:
            ready = json.loads(line)
        except ValueError:
            ready = None
        if proc.returncode != 0 or not isinstance(ready, dict):
            problems.append(f"set-up process failed (exit {proc.returncode})")
            continue
        attempted += ready["attempted"]
        failed += ready["failed"]
        problems += ready["problems"]
    return statistics.median(times), attempted, failed, problems


def conditions(root: Path, load_before: float) -> dict:
    """What the run ran on, and whether other work overlapped it."""
    import numpy

    load_after = os.getloadavg()[0]
    src_loc = sum(p.read_bytes().count(b"\n") for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_loc": src_loc,
        "load_1min_before": load_before,
        "load_1min_after": load_after,
        "overlapped": max(load_before, load_after) > 1 + OVERLAP_LOAD,
    }


def report(args, metrics: dict, units: dict, declared: str, extra: dict,
           correct: bool, attempted: int, failed: int) -> None:
    """Print every metric by name and unit, the details, then the JSON result
    holding the metrics BENCHMARK.json declares under `declared`."""
    names = [m["name"] for m in json.loads((Path.cwd() / "BENCHMARK.json").read_text())[declared]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value!r:>24} {units[name]}")
    print("details " + json.dumps(extra, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name in names
        },
    }
    print(json.dumps(result))


def run_timed(args, root: Path) -> None:
    from workloads import SCHEMES

    load_before = os.getloadavg()[0]
    setup_s, setup_att, setup_fail, setup_probs = measure_setup(args, root)
    with workdir(root) as path:
        runner = make_runner(args, root, path)
        for _ in range(5):      # its first calls pay for lazy initialisation
            reference.kernel()
        samples = timed_loop(runner, args.seed, args.seconds)
    attempted = runner.attempted + setup_att
    failed = runner.failed + setup_fail
    latencies = [s.seconds * 1e3 for s in samples]
    metrics = {
        "setup_s": setup_s,
        "tf_per_s": throughput(samples),
        **{f"{s}.tf_per_s": throughput(samples, s) for s in SCHEMES},
        "tf_per_ref_s": throughput(samples, per_ref=True),
        **{f"{s}.tf_per_ref_s": throughput(samples, s, per_ref=True) for s in SCHEMES},
        "op_ms.p50": statistics.median(latencies),
        "op_ms.p90": statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    metrics = {k: v for k, v in metrics.items() if v is not None}
    extra = {
        "conditions": conditions(root, load_before),
        "ops": len(samples),
        "host_slowdown.median": statistics.median(s.slowdown for s in samples),
        "op_ms.samples": len(latencies),
        "op_ms.beyond_p90": sum(x > metrics["op_ms.p90"] for x in latencies),
        "problems": (setup_probs + runner.problems)[:5],
    }
    report(args, metrics, END_TO_END_UNITS, "end_to_end", extra, failed == 0, attempted, failed)


def run_traced(args, root: Path) -> None:
    import tracing

    load_before = os.getloadavg()[0]
    tracer = tracing.Tracer()
    with workdir(root) as path:
        runner = make_runner(args, root, path, tracer)
        wl = runner.workload
        groups = 1 if args.tiny else max(1, int(args.seconds / 2 / wl.nominal_group_s))
        ops = list(itertools.islice(wl.ops(args.seed), groups * wl.group))
        before = tracing.snapshot()
        plain, traced = [], []
        # each op runs untraced, then traced, so drift affects both alike
        for op in ops:
            plain.append(runner.execute(op))
            tracer.install()
            try:
                traced.append(runner.execute(op))
            finally:
                tracer.uninstall()
        restored = tracing.same_objects(before, tracing.snapshot())
    same_output = [s.digest for s in plain] == [s.digest for s in traced]
    metrics = tracer.metrics(len(ops))
    metrics["tracing.tf_per_s_ratio"] = throughput(traced) / throughput(plain)
    units = tracing.metric_units()
    problems = list(runner.problems)
    if not same_output:
        problems.append("traced outputs differ from untraced outputs")
    if not restored:
        problems.append("tracing wrappers were not all removed")
    extra = {
        "conditions": conditions(root, load_before),
        "ops": len(ops),
        "traced_digests_equal": same_output,
        "wrappers_removed": restored,
        "problems": problems[:5],
    }
    correct = runner.failed == 0 and same_output and restored
    report(args, metrics, units, "per_layer", extra, correct, runner.attempted, runner.failed)


def setup_only(args, root: Path) -> None:
    with workdir(root) as path:
        runner = make_runner(args, root, path)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "problems": runner.problems}), flush=True)


def record_digests(root: Path) -> None:
    import workloads
    from beamtrack import harness

    table = {}
    for name, cls in workloads.WORKLOADS.items():
        with workdir(root) as path:
            wl = cls(path)
            wl.setup()
            n = wl.cycle
            checker = workloads.Checker({"schema_version": harness.SCHEMA_VERSION})
            for op in wl.warmup() + list(itertools.islice(wl.ops(0), n)):
                probs, digest = checker.check(wl, op, wl.output(op, wl.run(op)))
                if probs:
                    sys.exit(f"not recording: {op.key}: {probs}")
                table[op.key] = digest
        print(f"{name}: {n} operations recorded", file=sys.stderr)
    DIGESTS.write_text(json.dumps(
        {"schema_version": harness.SCHEMA_VERSION, "seed": 0, "ops": table},
        indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        load_program(root)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(root)
    elif args.setup_only:
        setup_only(args, root)
    elif args.trace:
        run_traced(args, root)
    else:
        run_timed(args, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
