#!/usr/bin/env python3
"""Compare the Monte Carlo tracking MSE against the recursive upper bound.

Usage: bound_experiment.py [--trials N]
"""

import argparse
from dataclasses import replace

import numpy as np

from beamtrack.errors import ConfigError
from beamtrack.harness import run_experiment
from beamtrack.presets import get_preset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()
    try:
        cfg = replace(get_preset("fig7"), trials=args.trials)
    except ConfigError as exc:
        ap.error(str(exc))

    summary = run_experiment(cfg)
    mse = np.array(summary.per_frame_mse)
    bound = np.array(summary.per_frame_bound, dtype=float)

    print(f"{args.trials} trials, SNR {cfg.snr_db} dB, "
          f"{cfg.n_x}x{cfg.n_y} array")
    print(f"{'frame':>5} {'mse':>12} {'bound':>12} {'below':>6}")
    for k in range(cfg.frames):
        below = "yes" if mse[k] <= bound[k] else "NO"
        print(f"{k + 1:>5} {mse[k]:>12.4e} {bound[k]:>12.4e} {below:>6}")
    frac = float(np.mean(mse[3:] <= bound[3:]))
    print(f"\nMSE below bound after frame 3: {frac:.1%} of frames")


if __name__ == "__main__":
    main()
