#!/usr/bin/env python3
"""Run a single tracking trial and print the per-frame trace.

Usage: run_tracking_demo.py [--preset NAME] [--scheme SCHEME] [--trial N]
"""

import argparse

from beamtrack.harness import SCHEMES, run_trial
from beamtrack.presets import get_preset, preset_names


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="fig4a", choices=preset_names())
    ap.add_argument("--scheme", default=None, choices=SCHEMES)
    ap.add_argument("--trial", type=int, default=0)
    args = ap.parse_args()
    # the rng keys hold a trial index in 64 bits, so a wider one would alias another trial
    if not 0 <= args.trial < 2**64:
        ap.error(f"--trial must lie in [0, 2**64), got {args.trial}")

    cfg = get_preset(args.preset)
    records = run_trial(cfg, args.trial, args.scheme)

    print(f"preset={args.preset} scheme={args.scheme or cfg.scheme} "
          f"trial={args.trial} frames={cfg.frames} snr={cfg.snr_db} dB")
    print(f"{'frame':>5} {'u_true':>9} {'v_true':>9} {'u_hat':>9} "
          f"{'v_hat':>9} {'err':>10} {'P_r':>7} {'flags':>8}")
    for r in records:
        flags = ("R" if r.realigned else "D" if r.detected else "") + \
                ("" if r.meas_valid else "!")
        print(f"{r.frame:>5} {r.u_true:>9.4f} {r.v_true:>9.4f} "
              f"{r.u_hat:>9.4f} {r.v_hat:>9.4f} {r.err_norm:>10.3e} "
              f"{r.p_r:>7.3f} {flags:>8}")


if __name__ == "__main__":
    main()
