"""Complex-comparison monopulse extraction from a planar-array snapshot.

For adjacent elements receiving exp(-j n u) phase progression, the ratio
(Y_n - Y_{n+1}) / (Y_n + Y_{n+1}) equals j tan(u/2) exactly in the
noiseless case.  Averaging over all adjacent pairs on each axis gives a
2-dimensional measurement regardless of the array size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateInputError, MeasurementFailure

if TYPE_CHECKING:
    from .harness import ScenarioConfig

# Pairs whose sum magnitude falls below this fraction of the mean element
# magnitude are dropped from the average: near |u| = pi the sum vanishes
# and the ratio variance explodes.
DENOMINATOR_FLOOR = 1e-9


@dataclass(frozen=True)
class MonopulseMeasurement:
    """The 2-vector measurement r = [Im Rx, Im Ry] plus raw complex values."""

    r: np.ndarray
    raw_rx: complex
    raw_ry: complex
    excluded_pairs: int = 0


def normalize_rx(y: np.ndarray) -> np.ndarray:
    """Divide the snapshot by a single complex reference gain.

    The reference is Y(0,0) when it is not vanishingly small, otherwise the
    largest-magnitude element.  Pairwise ratios are exactly invariant to
    this scaling; it only conditions the arithmetic.
    """
    mags = np.abs(y)
    peak = mags.max()
    if peak == 0.0:
        raise DegenerateInputError("all-zero snapshot cannot be normalized")
    g = y[0, 0]
    if abs(g) < DENOMINATOR_FLOOR * mags.mean():
        g = y.flat[np.argmax(mags)]
    return y / g


def _pair_average(a: np.ndarray, b: np.ndarray) -> tuple[complex, int]:
    """Mean of (a-b)/(a+b) over pairs with non-degenerate denominators."""
    num = a - b
    den = a + b
    floor = DENOMINATOR_FLOOR * max(np.abs(a).mean(), np.abs(b).mean())
    keep = np.abs(den) >= floor
    excluded = int(keep.size - keep.sum())
    if not keep.any():
        raise MeasurementFailure("all adjacent-pair denominators below floor")
    return complex(np.mean(num[keep] / den[keep])), excluded


def extract_measurement(y: np.ndarray, cfg: ScenarioConfig) -> MonopulseMeasurement:
    """Full monopulse measurement r = [Im Rx, Im Ry] from a raw snapshot."""
    if y.shape != (cfg.n_x, cfg.n_y):
        raise ValueError(f"snapshot shape {y.shape} does not match the {cfg.n_x}x{cfg.n_y} array")
    y_norm = normalize_rx(y)
    rx, ex_x = _pair_average(y_norm[:-1, :], y_norm[1:, :])
    # columns carry e^{+j m v} (the channel conjugates a_y), so the pair
    # order is swapped to keep the noiseless value at +j tan(v/2)
    ry, ex_y = _pair_average(y_norm[:, 1:], y_norm[:, :-1])
    return MonopulseMeasurement(
        r=np.array([rx.imag, ry.imag]),
        raw_rx=rx,
        raw_ry=ry,
        excluded_pairs=ex_x + ex_y,
    )
