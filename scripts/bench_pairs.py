#!/usr/bin/env python3
"""Compare this checkout with a parent checkout in alternating benchmark runs.

Usage: bench_pairs.py --parent DIR --workload W --pairs N
                      [--seconds S] [--seed K] [--tiny]

Pair i runs ``bench/run.py --workload W --trace 0 --seed K+i`` once in the
parent checkout DIR and once in this one, each from its own root (its own
``src/``, ``bench/`` and ``BENCHMARK.json``), one run after the other.  Which
side runs first alternates from pair to pair, so a drift in host speed
favours neither.  For each end-to-end metric of BENCHMARK.json the script
prints every pair, each side's median and quartiles, and how many pairs the
change wins (ties count for neither side).  A gain holds when the change wins
at least nine tenths of the pairs and the medians differ, in the better
direction, by more than the distance between the parent's quartiles.  The
no-regression verdict reads the metric's ``bound`` in BENCHMARK.json as a
fraction of the parent's median: ``regression`` when the change's median is
worse than the parent's by more than that, else ``unresolved`` when the
parent's quartile distance over its median exceeds the bound and not every
change run beats every parent run, else ``no regression``.
Under ``tf_per_ref_s`` it also prints, for each scheme whose
``<scheme>.tf_per_ref_s`` every run printed, each side's median and their
ratio, with no verdict: a gate that moves when only one scheme's operations
move (fig9-sweep's codebook, say) shows it there.
``--tiny`` passes ``--tiny`` to every run, for a smoke run whose numbers mean
nothing.  A workload that BENCHMARK.json does not name, a parent directory
without ``bench/run.py`` or ``BENCHMARK.json``, or a ``--seconds`` that is not
finite and positive, is a usage error, before any run.  A run that exits
non-zero stops the script with exit code 1, naming its side, pair and seed and
printing its stderr.
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a printed metric line of bench/run.py: "  <scheme>.tf_per_ref_s  <value> <unit>"
SCHEME_LINE = re.compile(r"\s+(\w+)\.tf_per_ref_s\s+(\S+)\s")


def bench_run(root: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One ``--trace 0`` run in the checkout at root: its JSON result, with each scheme's
    tf_per_ref_s under "schemes", read from the printed metric lines (the JSON holds only
    the declared metrics)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0",
           "--seed", str(seed), "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["schemes"] = {m[1]: float(m[2]) for m in map(SCHEME_LINE.match, lines) if m}
    return result


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list, change: list, bound: float, higher: bool) -> str:
    """The no-regression verdict on one metric's runs, its bound a fraction of the parent's
    median."""
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    worse = (pm - cm) if higher else (cm - pm)
    if worse > bound * pm:
        return "regression"
    beats_all = all((c > p) if higher else (c < p) for c in change for p in parent)
    if p3 - p1 > bound * pm and not beats_all:
        return "unresolved"
    return "no regression"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    # a run stops once its time is up: never for nan or inf, at once for 0 or less
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        ap.error(f"--seconds must be finite and positive, got {args.seconds!r}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}, got {args.workload!r}")
    missing = [name for name in ("bench/run.py", "BENCHMARK.json")
               if not (args.parent / name).is_file()]
    if missing:
        ap.error(f"--parent {args.parent} has no {' and no '.join(missing)}")

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(bench_run(sides[side], args.workload, args.seed + i,
                                            args.seconds, args.tiny))
            except subprocess.CalledProcessError as exc:
                sys.exit(f"the {side} run of pair {i + 1} (seed {args.seed + i}) exited with "
                         f"code {exc.returncode}; its stderr:\n{exc.stderr}")
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    declared = benchmark["end_to_end"]
    print(f"workload {args.workload}  pairs {args.pairs}  seconds {args.seconds:g}  "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    for side in sides:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: failed {failed} of {attempted}, correct {correct}")
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in sides)
        gain = (cm - pm) if higher else (pm - cm)
        holds = wins >= 0.9 * args.pairs and gain > p3 - p1
        print(f"{name} ({metric['unit']}, {metric['better']} is better)")
        for side in sides:
            print(f"  {side:6s} " + " ".join(f"{v:.6g}" for v in values[side]))
        print(f"  parent median {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change median {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"change/parent {cm / pm if pm else float('nan'):.4f}  "
              f"wins {wins}/{args.pairs}  gain holds {holds}")
        spread = (p3 - p1) / pm if pm else float("nan")
        print(f"  bound {metric['bound']:g}  parent spread {spread:.4f}  verdict "
              f"{verdict(values['parent'], values['change'], metric['bound'], higher)}")
        if name == "tf_per_ref_s":
            everywhere = [r["schemes"] for side in sides for r in runs[side]]
            for scheme in [s for s in everywhere[0] if all(s in e for e in everywhere)]:
                pm, cm = (statistics.median(r["schemes"][scheme] for r in runs[side])
                          for side in sides)
                print(f"  {scheme}.{name}  parent median {pm:.6g}  change median {cm:.6g}  "
                      f"ratio {cm / pm if pm else float('nan'):.4f}")


if __name__ == "__main__":
    main()
