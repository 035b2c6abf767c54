#!/usr/bin/env python3
"""Time the fixed and per-trial cost of a frame: CPU µs per trial-frame of a run.

Usage: frame_cost.py [--repeats N] [--tiny]

For each scheme at 1, 2, 5 and 100 trials, on fig9 (8x8, 50 frames, detection
off) and fig6 on an 8x16 array (100 frames, detection on), the script times
``harness._experiment(cfg, 1)``, the run in this one process, with
``time.process_time`` and prints the best of ``--repeats`` runs in µs per
trial-frame.  A row's cost at 1 and 2 trials is mostly what a frame costs
whatever the batch; at 100 trials it is mostly what each trial adds.  Beside
it the script prints the fewest minor page faults per trial-frame of those runs
(``resource.getrusage(RUSAGE_SELF).ru_minflt``), which shows the allocator's
share of a cost: a temporary above glibc's mmap threshold is mapped and faulted
in on each allocation.  The rows run in one process, in ``harness.SCHEMES``
order, so one scheme's allocations can move the threshold for those after it.

The script sets ``OPENBLAS_NUM_THREADS=1`` unless it is set, as the benchmark
runs.  ``--tiny`` runs one repeat of 5-frame runs at 1 and 2 trials, for a
smoke run whose numbers mean nothing.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy is first imported

import argparse  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

from beamtrack import harness  # noqa: E402
from beamtrack.presets import get_preset  # noqa: E402

# label, preset, array overrides
ROWS = [
    ("fig9 8x8", "fig9", {}),
    ("fig6 8x16", "fig6", {"n_y": 16}),
]
TRIALS = (1, 2, 5, 100)


def cost_per_trial_frame(cfg, repeats: int) -> tuple[float, float]:
    """The least CPU time and the fewest minor page faults of `repeats` runs of cfg in one
    process, in µs and faults per trial-frame."""
    best, faults = float("inf"), float("inf")
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.process_time()
        harness._experiment(cfg, 1)
        best = min(best, time.process_time() - t0)
        faults = min(faults, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    tf = cfg.trials * cfg.frames
    return 1e6 * best / tf, faults / tf


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    trial_counts = (1, 2) if args.tiny else TRIALS
    if args.tiny:
        args.repeats = 1

    print(f"cores {len(os.sched_getaffinity(0))}  "
          f"OPENBLAS_NUM_THREADS {os.environ['OPENBLAS_NUM_THREADS']}  repeats {args.repeats}")
    print(f"{'row':10s} {'scheme':8s} {'trials':>6s} {'frames':>6s} {'us/tf':>8s} "
          f"{'minflt/tf':>9s}")
    for label, preset, overrides in ROWS:
        for scheme in harness.SCHEMES:
            for trials in trial_counts:
                cfg = replace(get_preset(preset), scheme=scheme, trials=trials, **overrides)
                if args.tiny:
                    cfg = replace(cfg, frames=5)
                us, faults = cost_per_trial_frame(cfg, args.repeats)
                print(f"{label:10s} {scheme:8s} {trials:6d} {cfg.frames:6d} {us:8.1f} "
                      f"{faults:9.2f}", flush=True)


if __name__ == "__main__":
    main()
