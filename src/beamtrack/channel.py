"""LOS channel synthesis, received snapshots, and beamforming.

The channel between the N_x x N_y ground array and the single-antenna UAV
is rank one: H = alpha * a_x(u) a_y(v)^H.  The link budget is unit (no path
loss), the pilot and data symbols are 1, and the noise level is set
directly through a quoted SNR.

Angles, gains and snapshots may carry leading batch axes (one entry per
trial, or per frame and trial of a chunk of frames); the functions then work
on each entry as on a single one, through the primitives of beamtrack.arrays.
The noise steps take standard normals with the same leading axes (one row of
rng.trial_normals per entry) and scale them.  A run synthesizes a chunk's
channels, snapshots and data-phase noise in one call each, ahead of the frames
that read them, and steps the gain one frame at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .arrays import outer, vdot, vec

if TYPE_CHECKING:
    from .harness import ScenarioConfig


def noise_variance(cfg: ScenarioConfig, element_signal_power):
    """Per-element complex noise variance implied by the scenario's quoted SNR.

    cfg.snr_reference selects how the quoted SNR maps to per-element noise
    variance given the per-element signal power |H(n,m)|^2 (one per batch entry):

    - "element": sigma^2 = |H|^2 / SNR (per-element received SNR)
    - "array":   sigma^2 = |H|^2 / (N * SNR) with N = cfg.n; the quoted SNR is
      referenced to the aggregate array signal energy, which is the convention
      that reproduces the measurement-noise magnitudes of the reference results.
    """
    snr_lin = 10.0 ** (cfg.snr_db / 10.0)
    var = element_signal_power / snr_lin
    if cfg.snr_reference == "array":
        var /= cfg.n
    return var


def steering_vector(u, n: int) -> np.ndarray:
    """Array response along one axis: element i is exp(-1j * i * u), shape (*shape(u), n)."""
    return np.exp(np.multiply.outer(-1j * u, np.arange(n)))


def channel_matrix(gain, x: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Rank-one channel H = gain * a_x(u) a_y(v)^H at x = [..., u, v], shape (..., n_x, n_y)."""
    ax = steering_vector(x[..., 0], cfg.n_x)
    ay = steering_vector(x[..., 1], cfg.n_y)
    return np.asarray(gain)[..., None, None] * outer(ax, ay.conj())


def evolve_gain(alpha: complex | np.ndarray, rho: float, z: np.ndarray,
                innovation_var: float) -> np.ndarray:
    """First-order Gauss-Markov step for the channel gain, for alpha with any leading axes
    and two standard normals per entry in z (..., 2): the innovation's real part from
    z[..., 0], its imaginary part from z[..., 1].  A run passes its config's rho_gain and
    gain_var, which resolves the source model's literal default; the config checks that
    |rho| <= 1 and that the variance is not negative."""
    scale = np.sqrt(innovation_var / 2.0)
    eps = scale * z[..., 0] + 1j * (scale * z[..., 1]) if scale > 0 else 0.0
    return rho * alpha + eps


def complex_noise(shape, variance, z: np.ndarray) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with total variance per entry; the
    variance broadcasts against shape.  z holds the standard normals, its leading axes
    those of shape and its last axis two per entry of the rest: the real parts are the
    first half, the imaginary parts the second."""
    if not np.any(variance):
        return np.zeros(shape, dtype=complex)
    s = np.sqrt(variance / 2.0)
    half = z.shape[-1] // 2
    return s * z[..., :half].reshape(shape) + 1j * (s * z[..., half:].reshape(shape))


def synthesize_rx(h: np.ndarray, var: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pilot-phase snapshot Y = H + N (unit pilot) with element noise of variance var (one
    per batch entry), the frame's noise_variance, from the standard normals z
    (complex_noise)."""
    return h + complex_noise(h.shape, var[..., None, None], z)


def beamforming_weight(x: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Unit-norm conjugate-steering weight toward the direction x = [..., u, v].

    Returns vec(w_x w_y^H) of length N; vec() is row-major over (x, y).
    """
    wx = steering_vector(x[..., 0], cfg.n_x) / np.sqrt(cfg.n_x)
    wy = steering_vector(x[..., 1], cfg.n_y) / np.sqrt(cfg.n_y)
    return vec(outer(wx, wy.conj()))


def combine(w: np.ndarray, h_vec: np.ndarray, n: np.ndarray):
    """Data-phase combiner output r = w^H h + w^H n for the unit data symbol and the element
    noise n."""
    return vdot(w, h_vec) + vdot(w, n)
