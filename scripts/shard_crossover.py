#!/usr/bin/env python3
"""Time a run in one process and in two, per trial-frames each process gets.

Usage: shard_crossover.py [--repeats N] [--per-process TF,TF,...] [--tiny]

For each row and each value TF of ``--per-process`` the script builds a run
in which each of two processes would get TF trial-frames, and times
``harness._experiment`` on it with one block and twice with two: cold, when the
run forks its worker process, and warm, when it reuses the worker an earlier
run left idle.  The order of the three alternates from repeat to repeat.  It
prints the median wall time of each over ``--repeats`` runs and the ratio of
one process's time to each two-process time (above 1 means two are faster).  The
rows are the proposed scheme (the lightest, so the one with the least work
per process) on fig9 (8x8, 50 frames), fig4a (8x8, 100 frames) and fig6 on an
8x16 array (100 frames), each with 2·TF/frames trials, and a long run of
fig6 8x16 with 2 trials of TF frames.  ``harness.MIN_SHARD_TRIAL_FRAMES`` is
the smallest TF at which every row gains.

The script sets ``OPENBLAS_NUM_THREADS=1`` unless it is set, as a sharded
run needs.  ``--tiny`` runs one repeat of a few short runs, for a smoke run
whose numbers mean nothing.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy is first imported

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

from beamtrack import harness  # noqa: E402
from beamtrack.presets import get_preset  # noqa: E402

# label, preset, array overrides, and whether TF sets the frames of a 2-trial run
# (else the trials of a run of the preset's frames)
ROWS = [
    ("fig9 8x8", "fig9", {}, False),
    ("fig4a 8x8", "fig4a", {}, False),
    ("fig6 8x16", "fig6", {"n_y": 16}, False),
    ("fig6 8x16 2-trial", "fig6", {"n_y": 16}, True),
]


def row_config(preset: str, overrides: dict, long_run: bool, per_process: int, tiny: bool):
    """The run whose two blocks get per_process trial-frames each, or None if none has."""
    cfg = replace(get_preset(preset), scheme="proposed", **overrides)
    if tiny and not long_run:
        cfg = replace(cfg, frames=10)
    if long_run:
        return replace(cfg, trials=2, frames=per_process)
    trials = 2 * per_process // cfg.frames
    return replace(cfg, trials=trials) if trials >= 2 else None


def median_ms(cfg, repeats: int) -> tuple[float, float, float]:
    """Median wall ms of cfg's run in one process, in two with a worker forked for the run
    (cold) and in two with a worker an earlier run left (warm), alternating the order."""
    times = {"one": [], "cold": [], "warm": []}
    order = ("one", "cold", "warm")
    for i in range(repeats):
        # cold comes second either way, so warm always finds the worker of an earlier run
        for run in (order if i % 2 == 0 else order[::-1]):
            if run == "cold":
                harness._stop_workers()
            t0 = time.perf_counter()
            harness._experiment(cfg, 1 if run == "one" else 2)
            times[run].append(1e3 * (time.perf_counter() - t0))
    return tuple(statistics.median(times[run]) for run in order)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--per-process", default="100,200,300,400,500",
                    help="trial-frames per process, comma-separated")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    try:
        columns = [int(v) for v in args.per_process.split(",")]
    except ValueError:
        ap.error(f"--per-process must be comma-separated integers, got {args.per_process!r}")
    if args.tiny:
        args.repeats, columns = 1, [20]
    if args.repeats < 1 or min(columns) < 1:
        ap.error("--repeats and every --per-process value must be at least 1")

    print(f"cores {len(os.sched_getaffinity(0))}  "
          f"OPENBLAS_NUM_THREADS {os.environ['OPENBLAS_NUM_THREADS']}  repeats {args.repeats}  "
          f"MIN_SHARD_TRIAL_FRAMES {harness.MIN_SHARD_TRIAL_FRAMES}")
    print(f"{'row':18s} {'tf/proc':>7s} {'trials':>6s} {'frames':>6s} "
          f"{'1 proc ms':>9s} {'2 cold ms':>9s} {'2 warm ms':>9s} {'cold':>5s} {'warm':>5s}")
    for label, preset, overrides, long_run in ROWS:
        for per_process in columns:
            cfg = row_config(preset, overrides, long_run, per_process, args.tiny)
            if cfg is None:
                continue
            one, cold, warm = median_ms(cfg, args.repeats)
            print(f"{label:18s} {per_process:7d} {cfg.trials:6d} {cfg.frames:6d} "
                  f"{one:9.1f} {cold:9.1f} {warm:9.1f} {one / cold:5.2f} {one / warm:5.2f}",
                  flush=True)


if __name__ == "__main__":
    main()
