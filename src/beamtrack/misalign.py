"""Beamformed-power error estimation and misalignment detection.

The normalized received power after beamforming follows the planar-array
pattern; within the main lobe it is well approximated by
cos^4(N_x ||xi|| / 4) where xi is the angle estimation error.  Inverting
that approximation over a grid gives a real-time error-norm estimate; a
threshold crossing triggers mechanical realignment.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .harness import ScenarioConfig


def search_grid(n_x: int) -> tuple[float, float]:
    """Inversion grid step Delta = (2pi/N_x)/1000 and extent gamma = 0.95*(2pi/N_x),
    below the first null 2pi/N_x."""
    null = 2.0 * np.pi / n_x
    return null / 1000.0, 0.95 * null


@dataclass(frozen=True)
class ErrorEstimate:
    """Per-frame detector output."""

    xi_hat: float
    detected: bool
    realigned: bool
    clipped: bool = False


def _dirichlet_ratio(offset: float, n: int) -> float:
    """sin(n*t/2)/sin(t/2) with the removable singularities filled in."""
    den = np.sin(offset / 2.0)
    if den == 0.0:
        return float(n * np.cos(n * offset / 2.0))
    return float(np.sin(n * offset / 2.0) / den)


def received_power(x: np.ndarray, est: np.ndarray, cfg: ScenarioConfig) -> float:
    """Normalized beam-pattern power at offset x - est = (u-u_hat, v-v_hat); 1 at zero."""
    gx = _dirichlet_ratio(x[0] - est[0], cfg.n_x) / cfg.n_x
    gy = _dirichlet_ratio(x[1] - est[1], cfg.n_y) / cfg.n_y
    return float(gx**2 * gy**2)


@lru_cache(maxsize=16)
def _power_table(n_x: int, n_y: int):
    """Main-lobe powers of the search grid sorted ascending, with their norms and
    tie tolerance; the one place the cos^4 power model is written.

    Square arrays search a 1-D grid of norms, rectangular arrays a 2-D mesh of
    at most 201 x 201.  Read-only memoryviews, so lookups see Python floats.
    """
    grid_step, grid_max = search_grid(n_x)
    if n_y == n_x:
        norms = np.arange(0.0, grid_max + grid_step / 2.0, grid_step)
        vals, tol = np.cos(n_x * norms / 4.0) ** 4, 0.0
    else:
        step = max(grid_step, grid_max / 200.0)
        axis = np.arange(0.0, grid_max + step / 2.0, step)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        vals = (np.cos(n_x * gx / 4.0) ** 2 * np.cos(n_y * gy / 4.0) ** 2).ravel()
        norms, tol = np.hypot(gx, gy).ravel(), 1e-15
    order = np.argsort(vals, kind="stable")
    return memoryview(vals[order]).toreadonly(), memoryview(norms[order]).toreadonly(), tol


def estimate_error_norm(p_r: float, n_x: int, n_y: int | None = None) -> float:
    """Grid inversion of the power approximation; ties go to the smaller norm.

    For rectangular arrays (n_y != n_x) the search extends over the 2-D
    error grid on a coarser mesh.
    """
    if not math.isfinite(p_r):
        raise ValueError("power must be finite")
    if p_r < 0:
        raise ValueError("power must be non-negative")
    p = min(p_r, 1.0)
    vals, norms, tol = _power_table(n_x, n_y or n_x)
    i = bisect_left(vals, p)
    # fl(p - v) is monotone in v, so the (near-)best fits form one run of the
    # sorted table; bracket it with a few ulps to spare and search only that
    reach = 2.0 * (min(abs(p - v) for v in vals[max(i - 1, 0):i + 1]) + tol) + 1e-15
    lo, hi = bisect_left(vals, p - reach), bisect_left(vals, p + reach)
    err = [abs(p - v) for v in vals[lo:hi]]
    cut = min(err) + tol
    # smallest norm among (near-)minimal fits
    return min(n for e, n in zip(err, norms[lo:hi]) if e <= cut)


def detect_step(p_r: float, cfg: ScenarioConfig, consecutive: np.ndarray,
                trial=()) -> ErrorEstimate:
    """One detection step of one trial (its index in consecutive, the batch's
    consecutive-detection counters) on the scenario's array and detector fields;
    mutates that trial's counter.

    realigned=True means the caller must re-center the truth, re-initialize
    the tracker, and reset its own bookkeeping; the counter resets here.
    """
    clipped = p_r > 1.0
    xi_hat = estimate_error_norm(p_r, cfg.n_x, cfg.n_y)
    detected = bool(cfg.detect_enabled and xi_hat > cfg.threshold)
    count = consecutive[trial] + 1 if detected else 0
    realigned = bool(count >= cfg.detect_consecutive)
    consecutive[trial] = 0 if realigned else count
    return ErrorEstimate(
        xi_hat=xi_hat,
        detected=detected,
        realigned=realigned,
        clipped=clipped,
    )
