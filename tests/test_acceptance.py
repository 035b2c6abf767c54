"""End-to-end acceptance gate.

Each test checks one release criterion and emits a single
``CRITERION n: PASS/FAIL`` line directly to the terminal (bypassing
capture) so the gate's verdict is visible in any test log.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from beamtrack import rng as rngmod
from beamtrack.cli import main as cli_main
from beamtrack.ekf import TrackerState, update
from beamtrack.geometry import elevation_from_geometry, rotation_matrix
from beamtrack.harness import ScenarioConfig, run_batch, run_experiment, run_trial, trial_ledger
from beamtrack.monopulse import extract_measurement
from beamtrack.presets import get_preset

from conftest import rank1_snapshot

NOMINAL_THRESHOLD = 0.89 * np.pi / 8


def report(num: int, desc: str, ok: bool) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def per_frame_sq_err(cfg: ScenarioConfig, scheme: str) -> np.ndarray:
    """(trials, frames) matrix of squared tracking errors, from one batched run."""
    return np.array(
        [[r.err_norm**2 for r in records] for records in run_batch(cfg, range(cfg.trials), scheme)]
    )


@pytest.mark.parametrize("scheme", ["proposed", "abp", "codebook"])
def test_batched_matrix_equals_single_trial_runs(scheme):
    # the criteria read one batched run; each row is what the trial gives alone
    cfg = replace(get_preset("fig9"), trials=4, frames=12, seed=11)
    single = np.array([[r.err_norm**2 for r in run_trial(cfg, t, scheme)]
                       for t in range(cfg.trials)])
    assert per_frame_sq_err(cfg, scheme).tobytes() == single.tobytes()


def test_criterion_1_monopulse_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for nx, ny in ((2, 2), (4, 4), (8, 8), (16, 16)):
        arr = ScenarioConfig(n_x=nx, n_y=ny)
        for _ in range(1000):
            u, v = rng.uniform(-2.0, 2.0, 2)
            meas = extract_measurement(rank1_snapshot(u, v, arr), arr)
            expected = np.tan(np.array([u, v]) / 2.0)
            worst = max(worst, float(np.max(np.abs(meas.r - expected))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, f"monopulse exact to {worst:.2e} (<1e-12), {elapsed:.2f}s (<1s)", ok)
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_ekf_algebra():
    start = time.perf_counter()
    worst = 0.0
    for p in np.logspace(-8, 1, 19):
        for sig2 in np.logspace(-8, 1, 19):
            pred = TrackerState(np.zeros(2), p * np.eye(2))
            _, _, k = update(pred, np.zeros(2), 0.5 * np.eye(2), sig2 * np.eye(2))
            expected = 0.5 * p / (0.25 * p + sig2)
            worst = max(worst, float(np.max(np.abs(k - expected * np.eye(2)))))
    gain_ok = worst < 1e-12

    rng = np.random.default_rng(7)
    min_eig = np.inf
    for _ in range(10_000):
        a = rng.normal(size=(2, 2))
        pred = TrackerState(rng.uniform(-1, 1, 2), a @ a.T + 1e-9 * np.eye(2))
        q_n = np.diag(rng.uniform(1e-8, 1.0, 2))
        new, _, _ = update(pred, rng.normal(size=2), 0.5 * np.eye(2), q_n)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(pred.p - new.p).min()))
    psd_ok = min_eig >= -1e-10
    elapsed = time.perf_counter() - start
    ok = gain_ok and psd_ok and elapsed < 5.0
    report(2, f"gain formula to {worst:.2e}, P-P+ min eig {min_eig:.1e}, "
              f"{elapsed:.2f}s (<5s)", ok)
    assert ok


def test_criterion_3_elevation_reference():
    theta = elevation_from_geometry(8.0, 1.0)
    ok = abs(theta - 0.1244) <= 5e-5
    report(3, f"elevation(8,1) = {theta:.5f} (0.1244 +/- 5e-5)", ok)
    assert ok


def test_criterion_4_bound_dominance():
    start = time.perf_counter()
    cfg = replace(get_preset("fig7"), trials=1000)
    summary = run_experiment(cfg)
    mse = np.array(summary.per_frame_mse)
    bound = np.array(summary.per_frame_bound, dtype=float)
    below = mse[3:] <= bound[3:]
    frac = float(np.mean(below))
    elapsed = time.perf_counter() - start
    ok = frac >= 0.99 and elapsed < 120.0
    report(4, f"MSE below averaged bound in {frac:.1%} of frames after frame 3 "
              f"(>=99%), {elapsed:.0f}s (<120s)", ok)
    assert ok


def test_criterion_5_scheme_ordering():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        frames=50, trials=500, snr_db=10.0,
        sigma_u=0.005, sigma_v=0.005, sigma_init=5e-5,
        detect_enabled=False, seed=11,
    )
    sq = {s: per_frame_sq_err(cfg, s) for s in ("proposed", "abp", "codebook")}
    sl = slice(19, 50)  # frames 20-50

    avg = {s: float(sq[s][:, sl].mean()) for s in sq}
    frame_avg_ok = avg["proposed"] <= avg["abp"] <= avg["codebook"]

    # per-frame comparisons on the paired samples; proposed vs ABP may tie,
    # so a violation there must be statistically significant (> 2 paired
    # standard errors); ABP vs codebook is a strict mean comparison
    n = cfg.trials
    diff_pa = sq["proposed"][:, sl] - sq["abp"][:, sl]
    se_pa = diff_pa.std(axis=0, ddof=1) / np.sqrt(n)
    viol_pa = diff_pa.mean(axis=0) > 2.0 * se_pa
    viol_ac = sq["abp"][:, sl].mean(axis=0) > sq["codebook"][:, sl].mean(axis=0)
    viol_frac = float(np.mean(viol_pa | viol_ac))

    elapsed = time.perf_counter() - start
    ok = frame_avg_ok and viol_frac <= 0.10 and elapsed < 600.0
    report(5, f"frame-avg MSE {avg['proposed']:.2e} <= {avg['abp']:.2e} <= "
              f"{avg['codebook']:.2e}, per-frame violations {viol_frac:.1%} "
              f"(<=10%), {elapsed:.0f}s (<600s)", ok)
    assert ok


def test_criterion_6_snr_slope():
    start = time.perf_counter()
    base = get_preset("fig9")
    snrs = np.arange(-4.0, 15.0, 2.0)
    steady = []
    for snr in snrs:
        sq = per_frame_sq_err(replace(base, snr_db=float(snr)), "proposed")
        steady.append(float(sq[:, 19:50].mean()))
    log_mse = np.log10(steady)

    def crossing(target_log: float) -> float:
        # steady-state MSE decreases with SNR; interpolate the crossing
        for i in range(len(snrs) - 1):
            if log_mse[i] >= target_log >= log_mse[i + 1]:
                t = (log_mse[i] - target_log) / (log_mse[i] - log_mse[i + 1])
                return float(snrs[i] + t * (snrs[i + 1] - snrs[i]))
        raise AssertionError(f"target 1e{target_log} not crossed in sweep")

    snr_hi = crossing(-5.0)
    snr_lo = crossing(-4.0)
    delta = snr_hi - snr_lo
    elapsed = time.perf_counter() - start
    ok = 9.0 <= delta <= 15.0 and elapsed < 900.0
    report(6, f"1e-4 -> 1e-5 takes {delta:.1f} dB (12 +/- 3), "
              f"{elapsed:.0f}s (<900s)", ok)
    assert ok


def test_criterion_7_misalignment_detection():
    start = time.perf_counter()
    cfg = get_preset("fig6")
    f_inv = np.linalg.inv(rotation_matrix(cfg.psi_value))
    events = 0
    timely = 0
    post_ok = True
    post_checked = 0
    for t, records in enumerate(run_batch(cfg, range(cfg.trials))):
        for i, rec in enumerate(records):
            if rec.realigned and i + 1 < len(records):
                # recover the post-realignment truth from the next frame by
                # inverting the rotation and replaying the process draw
                nxt = records[i + 1]
                proc = rngmod.stream(cfg.seed, t, nxt.frame, "process")
                drift = proc.normal(0.0, [cfg.sigma_u, cfg.sigma_v])
                x_re = f_inv @ (np.array([nxt.u_true, nxt.v_true]) - drift)
                post_checked += 1
                if not (abs(x_re[0]) < 0.1 and abs(x_re[1]) < 0.1):
                    post_ok = False
        # crossing events: first frame of each excursion where the true
        # error norm exceeds the nominal 3 dB threshold
        i = 0
        while i < len(records):
            if records[i].err_norm > NOMINAL_THRESHOLD:
                events += 1
                window = records[i : i + 3]
                if any(r.realigned for r in window):
                    timely += 1
                # skip to after this excursion is resolved
                j = i
                while j < len(records) and not records[j].realigned:
                    j += 1
                i = j + 1
            else:
                i += 1
    frac = timely / events if events else float("nan")
    elapsed = time.perf_counter() - start
    ok = events > 0 and frac >= 0.95 and post_ok and elapsed < 180.0
    report(7, f"{events} threshold crossings, realignment within 2 frames in "
              f"{frac:.1%} (>=95%), post-realign truth inside 0.1 for all "
              f"{post_checked} events, {elapsed:.0f}s (<180s)", ok)
    assert ok


def test_criterion_8_initial_error_insensitivity():
    small = get_preset("fig8_small")
    large = get_preset("fig8_large")

    prop_small = per_frame_sq_err(small, "proposed").mean(axis=0)
    prop_large = per_frame_sq_err(large, "proposed").mean(axis=0)
    ratio_prop = prop_large[4:50].mean() / prop_small[4:50].mean()
    prop_ok = max(ratio_prop, 1.0 / ratio_prop) < 2.0

    cb_small = per_frame_sq_err(small, "codebook").mean(axis=0)
    cb_large = per_frame_sq_err(large, "codebook").mean(axis=0)
    ratio_cb = cb_large[:10].mean() / cb_small[:10].mean()
    cb_ok = ratio_cb >= 2.0

    ok = prop_ok and cb_ok
    report(8, f"proposed frames 5-50 ratio {ratio_prop:.2f} (<2), "
              f"codebook frames 1-10 ratio {ratio_cb:.1f} (>=2)", ok)
    assert ok


def test_criterion_9_complexity_ledger():
    ok = True
    for frames in (10, 50, 137):
        for k in (4, 8, 16):
            cfg = ScenarioConfig(frames=frames, codebook_k=k)
            led_p = trial_ledger(cfg, "proposed")
            led_a = trial_ledger(cfg, "abp")
            led_c = trial_ledger(cfg, "codebook")
            ok &= led_p.m == 2 and led_p.pilot_slots == frames
            ok &= led_a.m == 2 and led_a.pilot_slots == frames * k * k
            ok &= led_c.m == 2 * k * k and led_c.pilot_slots == frames * k * k
            ok &= led_p.solve_cost == frames * 2**3
            ok &= led_c.solve_cost == frames * (2 * k * k) ** 3
    report(9, "ledger relations exact for all (frames, K) combinations", ok)
    assert ok


def test_criterion_10_determinism(tmp_path):
    runner = CliRunner()
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        result = runner.invoke(
            cli_main, ["run", "--config", "fig4a", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        files = sorted(p.name for p in out.iterdir())
        outputs.append({name: (out / name).read_bytes() for name in files})
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(10, f"two fig4a runs byte-identical across {len(outputs[0])} "
               f"output files", ok)
    assert ok
