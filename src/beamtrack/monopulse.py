"""Complex-comparison monopulse extraction from a planar-array snapshot.

For adjacent elements receiving exp(-j n u) phase progression, the ratio
(Y_n - Y_{n+1}) / (Y_n + Y_{n+1}) equals j tan(u/2) exactly in the
noiseless case.  Averaging over all adjacent pairs on each axis gives a
2-dimensional measurement regardless of the array size.  A pair whose sum
is vanishingly small is dropped from the average, and the measurement
counts the dropped pairs over the batch.  A snapshot without a usable pair
on an axis measures NaN there, which the EKF turns into a predict-only
frame.  An all-zero snapshot is one of them: it drops every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .arrays import mean, vec

if TYPE_CHECKING:
    from .harness import ScenarioConfig

# Pairs whose sum magnitude falls below this fraction of the mean element
# magnitude are dropped from the average: near |u| = pi the sum vanishes
# and the ratio variance explodes.
DENOMINATOR_FLOOR = 1e-9


@dataclass(frozen=True)
class MonopulseMeasurement:
    """The 2-vector measurement r = [Im Rx, Im Ry] per snapshot of a batch; a snapshot
    without a usable pair on an axis has NaN there."""

    r: np.ndarray
    excluded_pairs: int         # summed over the batch


def normalize_rx(y: np.ndarray) -> np.ndarray:
    """Divide each snapshot by a single complex reference gain.

    The reference is Y(0,0) when it is not vanishingly small, otherwise the
    largest-magnitude element; each snapshot of a batch picks its own, so a
    snapshot normalizes as it does alone.  Pairwise ratios are exactly
    invariant to this scaling; it only conditions the arithmetic.  An
    all-zero snapshot has no reference and keeps its zeros.
    """
    mags = vec(np.abs(y))
    g = y[..., 0, 0]
    small = np.hypot(g.real, g.imag) < DENOMINATOR_FLOOR * mean(mags)
    peak = np.take_along_axis(vec(y), mags.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    g = np.where(small, peak, g)
    return y / np.where(g == 0, 1.0, g)[..., None, None]


def _pair_average(a, b, mag_a, mag_b) -> tuple[np.ndarray, int]:
    """Mean of (a-b)/(a+b) over pairs with non-degenerate denominators, per snapshot (NaN
    where none is left), and the count of pairs dropped, summed over the batch; mag_a and
    mag_b are |a| and |b|.  An all-zero snapshot has a zero floor and drops every pair."""
    den = a + b
    floor = DENOMINATOR_FLOOR * np.maximum(mean(vec(mag_a)), mean(vec(mag_b)))
    keep = (vec(np.abs(den)) >= floor[..., None]) & (floor > 0)[..., None]
    if keep.all():
        return mean(vec((a - b) / den)), 0
    excluded = keep.shape[-1] - np.add.reduce(keep, axis=-1)
    # a snapshot that dropped pairs averages what it kept, as a 1-D mean of those
    num, den = vec(a - b), vec(den)
    avg = np.empty(excluded.shape, dtype=complex)
    for i in np.ndindex(excluded.shape):
        k = keep[i]
        avg[i] = mean(num[i][k] / den[i][k]) if k.any() else complex(np.nan, np.nan)
    return avg, int(np.add.reduce(excluded, axis=None))


def extract_measurement(y: np.ndarray, cfg: ScenarioConfig) -> MonopulseMeasurement:
    """Full monopulse measurement r = [Im Rx, Im Ry] from raw snapshots of shape
    (..., n_x, n_y)."""
    if y.shape[-2:] != (cfg.n_x, cfg.n_y):
        raise ValueError(f"snapshot shape {y.shape} does not match the {cfg.n_x}x{cfg.n_y} array")
    y_norm = normalize_rx(y)
    mags = np.abs(y_norm)
    rx, ex_x = _pair_average(y_norm[..., :-1, :], y_norm[..., 1:, :],
                             mags[..., :-1, :], mags[..., 1:, :])
    # columns carry e^{+j m v} (the channel conjugates a_y), so the pair
    # order is swapped to keep the noiseless value at +j tan(v/2)
    ry, ex_y = _pair_average(y_norm[..., :, 1:], y_norm[..., :, :-1],
                             mags[..., :, 1:], mags[..., :, :-1])
    return MonopulseMeasurement(np.stack([np.imag(rx), np.imag(ry)], axis=-1), ex_x + ex_y)
