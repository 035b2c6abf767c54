"""LOS channel synthesis, received snapshots, and beamforming.

The channel between the N_x x N_y ground array and the single-antenna UAV
is rank one: H = alpha * a_x(u) a_y(v)^H.  The link budget is unit (no path
loss), the pilot and data symbols are 1, and the noise level is set
directly through a quoted SNR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .harness import ScenarioConfig


def noise_variance(cfg: ScenarioConfig, element_signal_power: float, n_elements: int) -> float:
    """Per-element complex noise variance implied by the scenario's quoted SNR.

    cfg.snr_reference selects how the quoted SNR maps to per-element noise
    variance given the per-element signal power |H(n,m)|^2:

    - "element": sigma^2 = |H|^2 / SNR (per-element received SNR)
    - "array":   sigma^2 = |H|^2 / (N * SNR); the quoted SNR is referenced
      to the aggregate array signal energy, which is the convention that
      reproduces the measurement-noise magnitudes of the reference results.
    """
    snr_lin = 10.0 ** (cfg.snr_db / 10.0)
    var = element_signal_power / snr_lin
    if cfg.snr_reference == "array":
        var /= n_elements
    return var


def steering_vector(u: float, n: int) -> np.ndarray:
    """Array response along one axis: element i is exp(-1j * i * u)."""
    if n < 1:
        raise ValueError("need at least one element")
    return np.exp(-1j * u * np.arange(n))


def channel_matrix(gain: complex, x: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Rank-one channel H = gain * a_x(u) a_y(v)^H at x = [u, v], shape (n_x, n_y)."""
    ax = steering_vector(x[0], cfg.n_x)
    ay = steering_vector(x[1], cfg.n_y)
    return gain * np.outer(ax, ay.conj())


def evolve_gain(
    alpha: complex,
    rho: float,
    rng: np.random.Generator,
    innovation_var: float | None = None,
) -> complex:
    """First-order Gauss-Markov step for the channel gain.

    innovation_var defaults to the literal (1 - rho^2 / 2) of the source
    model.  That normalization does not vanish at rho = 1, which is unusual
    for a Gauss-Markov process; pass an explicit value to override.
    """
    if abs(rho) > 1:
        raise ValueError("|rho| must not exceed 1")
    if innovation_var is None:
        innovation_var = 1.0 - rho**2 / 2.0
    if innovation_var < 0:
        raise ValueError("innovation variance must be non-negative")
    scale = np.sqrt(innovation_var / 2.0)
    eps = complex(rng.normal(0.0, scale) + 1j * rng.normal(0.0, scale)) if scale > 0 else 0.0
    return rho * alpha + eps


def complex_noise(shape, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with total variance per entry."""
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    s = np.sqrt(variance / 2.0)
    return rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)


def synthesize_rx(h: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Pilot-phase snapshot Y = H + N (unit pilot) with SNR-calibrated element noise."""
    element_power = float(np.mean(np.abs(h) ** 2))
    var = noise_variance(cfg, element_power, h.size)
    return h + complex_noise(h.shape, var, rng)


def beamforming_weight(x: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Unit-norm conjugate-steering weight toward the direction x = [u, v].

    Returns vec(w_x w_y^H) of length N; vec() is row-major over (x, y).
    """
    wx = steering_vector(x[0], cfg.n_x) / np.sqrt(cfg.n_x)
    wy = steering_vector(x[1], cfg.n_y) / np.sqrt(cfg.n_y)
    return np.outer(wx, wy.conj()).ravel()


def beamformed_signal(
    w: np.ndarray, h_vec: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator
) -> complex:
    """Data-phase combiner output r = w^H h + w^H n for the unit data symbol.

    The combiner is unit norm, so the noise term keeps the per-element
    variance.
    """
    element_power = float(np.mean(np.abs(h_vec) ** 2))
    var = noise_variance(cfg, element_power, h_vec.size)
    n = complex_noise(h_vec.shape, var, rng)
    return complex(np.vdot(w, h_vec) + np.vdot(w, n))
