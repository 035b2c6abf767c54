#!/usr/bin/env python3
"""Sweep SNR and print the steady-state tracking MSE per scheme.

Usage: snr_sweep.py [--snr-min DB] [--snr-max DB] [--step DB]
                    [--trials N] [--schemes a,b,c]
"""

import argparse
from dataclasses import replace

import numpy as np

from beamtrack.errors import ConfigError
from beamtrack.harness import run_experiment
from beamtrack.presets import get_preset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--snr-min", type=float, default=-4.0)
    ap.add_argument("--snr-max", type=float, default=14.0)
    ap.add_argument("--step", type=float, default=2.0)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--schemes", default="proposed")
    args = ap.parse_args()
    if not args.step > 0:
        ap.error("--step must be positive")
    if not args.snr_min <= args.snr_max:
        ap.error("--snr-min must not exceed --snr-max")

    # as `track compare` reads its list
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        ap.error("--schemes names no scheme")
    # the grid runs to snr_max + step/2, so that round-off keeps snr_max in it
    try:
        snrs = np.arange(args.snr_min, args.snr_max + args.step / 2, args.step)
    except (ValueError, MemoryError) as exc:
        ap.error(f"--snr-min, --snr-max and --step give a grid numpy cannot build: {exc}")
    if not len(snrs):
        ap.error("--snr-min, --snr-max and --step give a grid without a point: "
                 f"{args.snr_max} + {args.step}/2 rounds to {args.snr_max + args.step / 2}")
    # every point's config is built, and so checked, before any runs
    try:
        base = replace(get_preset("fig9"), trials=args.trials)
        grid = [[replace(base, snr_db=float(snr), scheme=s) for s in schemes] for snr in snrs]
    except ConfigError as exc:
        ap.error(str(exc))

    print("steady-state MSE (mean over frames 20-50), "
          f"{args.trials} trials per point")
    print("snr_db  " + "  ".join(f"{s:>12}" for s in schemes))
    for snr, cfgs in zip(snrs, grid):
        row = [float(np.mean(run_experiment(cfg).per_frame_mse[19:50])) for cfg in cfgs]
        print(f"{snr:>6.1f}  " + "  ".join(f"{v:>12.4e}" for v in row))


if __name__ == "__main__":
    main()
