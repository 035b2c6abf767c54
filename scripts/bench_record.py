#!/usr/bin/env python3
"""Record one benchmark trajectory point as BENCH_<n>.json.

Usage: bench_record.py --out BENCH_<n>.json --junit TIER1.xml
                       [--seconds S] [--tiny]

Runs ``bench/run.py`` on each workload that ``BENCHMARK.json`` names, once at
``--trace 0`` (the gated end-to-end metrics) and once at ``--trace 1`` (the
per-layer metrics), one run after another, and reads the seconds of each
acceptance criterion from the junit XML of a tier-1 run, made with

    PYTHONPATH=src python -m pytest -q --junitxml TIER1.xml

Each run's ``conditions`` (core count, BLAS threads, Python and numpy
versions, src line count, load before and after, whether other work
overlapped it) are kept beside its metrics.  ``--tiny`` passes ``--tiny`` to
every run, for a quick smoke run whose numbers mean nothing.  A ``--junit`` file
that cannot be read or is not XML, or a ``--seconds`` that is not finite and
positive, is a usage error, before any run.  A run that exits non-zero stops the
script with exit code 1, naming its workload and trace level and printing its
stderr.
"""

import argparse
import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERION = re.compile(r"test_criterion_(\d+)_")


def bench_run(workload: str, trace: int, seconds: float, tiny: bool) -> dict:
    """One bench/run.py run: its conditions, verdict and declared metrics."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--trace", str(trace),
           "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"the {workload} run at --trace {trace} exited with code {proc.returncode}; "
                 f"its stderr:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    details = json.loads(next(line for line in lines if line.startswith("details "))[8:])
    result = json.loads(lines[-1])
    return {
        "conditions": details["conditions"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def criterion_seconds(junit: Path) -> dict:
    """Seconds of each acceptance criterion, and the whole run's totals."""
    root = ET.parse(junit).getroot()
    cases = list(root.iter("testcase"))
    seconds = {}
    for case in cases:
        match = CRITERION.match(case.get("name", ""))
        if match and case.get("classname", "").endswith("test_acceptance"):
            seconds[f"C{match.group(1)}"] = float(case.get("time", "nan"))
    return {
        "criterion_s": seconds,
        "tests": len(cases),
        "total_s": sum(float(c.get("time", 0.0)) for c in cases),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--junit", required=True, type=Path,
                    help="junit XML of a tier-1 run (pytest --junitxml)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    # a run stops once its time is up: never for nan or inf, at once for 0 or less
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        ap.error(f"--seconds must be finite and positive, got {args.seconds!r}")

    try:
        tier1 = criterion_seconds(args.junit)
    except (OSError, ET.ParseError) as exc:
        ap.error(f"--junit {args.junit}: {exc}")
    record = {"seconds": args.seconds, "tiny": args.tiny, "tier1": tier1, "workloads": {}}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in benchmark["workloads"]):
        record["workloads"][workload] = {
            f"trace{trace}": bench_run(workload, trace, args.seconds, args.tiny)
            for trace in (0, 1)
        }
        print(f"{workload}: done", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
