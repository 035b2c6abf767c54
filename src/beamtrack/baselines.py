"""Comparison trackers: codebook-beamforming EKF and auxiliary-beam-pair EKF.

Both baselines measure beamformed pilot observations instead of the raw
snapshot.  The codebook tracker stacks real/imag parts of all K^2 beam
outputs (measurement dimension 2*K^2); the auxiliary-beam-pair (ABP)
tracker forms a gain-invariant power-ratio metric around the codebook beam
nearest the prediction (measurement dimension 2).

Each tracker builds its beam tables (the codebook weights, and ABP's squinted
axis weights) in its __init__, each table one batched call; a run builds one
tracker for all its trials.  Both step a batch of trials at once: states and
snapshots carry a leading batch axis.  An entry whose measurement fails has a
NaN measurement row, which ekf.settle turns into a predict-only frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .arrays import abs2, diag, matvec, outer, vdot, vec
from .channel import beamforming_weight, noise_variance, steering_vector
from .ekf import TrackerState, predict, settle, step_result, update

if TYPE_CHECKING:
    from .harness import ScenarioConfig

# Half the 3dB beamwidth in spatial-angle units; the standard squint for
# amplitude-comparison monopulse.
ABP_SQUINT_FACTOR = 0.445 * np.pi

_POWER_FLOOR = 1e-30

# Lower limit of each delta-method ratio variance.
_Q_N_FLOOR = 1e-8


@dataclass(frozen=True)
class Codebook:
    """Uniform spatial-angle beam grid with K beams per axis."""

    axis_angles: np.ndarray     # (K,), strictly increasing over [-pi, pi)
    w_h: np.ndarray             # (K^2, N) conjugated unit-norm beam weights, (u, v) x-major

    def nearest_axis_index(self, angle):
        """Index of the axis angle nearest each angle."""
        return np.argmin(np.abs(self.axis_angles - np.asarray(angle)[..., None]), axis=-1)


def build_codebook(cfg: ScenarioConfig) -> Codebook:
    """DFT-style grid: K = cfg.k_beams uniformly spaced spatial angles per axis."""
    k = cfg.k_beams
    axis = -np.pi + 2.0 * np.pi * np.arange(k) / k
    pairs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return Codebook(axis_angles=axis, w_h=beamforming_weight(pairs, cfg).conj())


def squinted_weights(centers: np.ndarray, delta: float, n: int) -> np.ndarray:
    """Unit axis weights steering_vector(a, n)/sqrt(n) at a = c + delta, c and c - delta
    for each center c, shape (len(centers), 3, n); ABP's table per axis has the codebook's
    axis angles as centers and is indexed by Codebook.nearest_axis_index."""
    return steering_vector(np.add.outer(centers, [delta, 0.0, -delta]), n) / np.sqrt(n)


def _stack_reim(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def codebook_measurement(
    y_vec: np.ndarray,
    codebook: Codebook,
) -> np.ndarray:
    """Beamform the pilot snapshot on every codebook beam; stack re/im."""
    return _stack_reim(matvec(codebook.w_h, y_vec))


def codebook_model(
    x: np.ndarray,
    cfg: ScenarioConfig,
    codebook: Codebook,
    gain: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless observations of the unit pilot at x on the codebook's beams, and their
    analytic (2K^2 x 2) Jacobian, from one pair of steering vectors."""
    ax = steering_vector(x[..., 0], cfg.n_x)
    ay = steering_vector(x[..., 1], cfg.n_y)
    w_h = codebook.w_h
    h_vec = vec(1.0 * outer(ax, ay.conj()))
    dax = -1j * np.arange(cfg.n_x) * ax
    day = -1j * np.arange(cfg.n_y) * ay
    # d vec(a_x a_y^H) / du and / dv; conj of a_y picks up +j*m
    du = vec(outer(dax, ay.conj()))
    dv = vec(outer(ax, (day.conj())))
    z_hat = _stack_reim(gain * matvec(w_h, h_vec))
    g = np.stack([_stack_reim(gain * matvec(w_h, du)), _stack_reim(gain * matvec(w_h, dv))],
                 axis=-1)
    return z_hat, g


class CodebookTracker:
    """EKF over the stacked codebook beam observations.

    The complex channel gain is not observable to the tracker; it uses the
    conditional mean rho^k (alpha_0 = 1) as the predicted gain and folds the
    residual gain uncertainty isotropically into its measurement
    covariance (gain_uncertainty_var scaled by the mean beam power).
    """

    def __init__(self, cfg: ScenarioConfig, state: TrackerState):
        self.cfg = cfg
        self.state = state
        self.alpha_pred = 1.0 + 0.0j
        self.q_n = self.noise_var(cfg) * np.eye(2 * cfg.k_beams**2)
        self.codebook = build_codebook(cfg)

    frame_cost = staticmethod(lambda k2: (2 * k2, k2))  # (measurement size, pilot slots) per frame

    @staticmethod
    def noise_var(cfg: ScenarioConfig) -> float:
        """Per-component noise variance of the stacked re/im beam observations plus the gain
        uncertainty scaled by the mean beam power; DFT beams are near-orthonormal, so Q_n
        is this times I.  A gain without innovations never varies and adds no uncertainty
        (evolve_gain's literal default variance is positive for every |rho| <= 1)."""
        n, k, giv = cfg.n, cfg.k_beams, cfg.gain_innovation_var
        guv = cfg.gain_uncertainty_var if giv is None or giv > 0 else 0.0
        return noise_variance(cfg, 1.0, n) / 2.0 + 0.5 * guv * n / k**2

    def step(self, y: np.ndarray) -> dict:
        cfg = self.cfg
        self.alpha_pred *= cfg.rho_gain
        pred = predict(self.state, cfg.f, cfg.q_p)
        z = codebook_measurement(vec(y), self.codebook)
        z_hat, g = codebook_model(pred.x, cfg, self.codebook, self.alpha_pred)
        # the 2K^2 x 2K^2 update is BLAS-bound and large: one trial at a time
        x, p = np.empty_like(pred.x), np.empty_like(pred.p)
        innovation = np.empty(z.shape)
        for i in np.ndindex(x.shape[:-1]):
            new, innovation[i], _ = update(TrackerState(pred.x[i], pred.p[i]), z[i], g[i],
                                           self.q_n, z_hat[i])
            x[i], p[i] = new.x, new.p
        self.state, innovation = settle(pred, TrackerState(x, p), innovation)
        return step_result(innovation)

    def reinitialize(self, mask: np.ndarray, state: TrackerState):
        """Restart the trials in mask from state."""
        self.state = state.where(mask, self.state)


def _axis_pair_powers(u, beams: np.ndarray):
    """Noiseless powers at spatial angle u of the +/- squinted rows of squinted_weights."""
    a = steering_vector(u, beams.shape[-1])
    p = abs2(vdot(beams[..., ::2, :], a[..., None, :]))
    return p[..., 0], p[..., 1]


def _pair_ratio(p_plus, p_minus):
    """Ratio (p+ - p-) / (p+ + p-) of a squinted beam pair's powers; NaN for an entry whose
    powers are both below the floor."""
    total = p_plus + p_minus
    low = total < _POWER_FLOOR
    if not low.any():
        return (p_plus - p_minus) / total
    return np.where(low, np.nan, (p_plus - p_minus) / np.where(low, 1.0, total))


def abp_ratio_curve(u, beams: np.ndarray):
    """Noiseless ratio metric zeta(u) for one axis, beams from squinted_weights; lies in [-1, 1]."""
    return _pair_ratio(*_axis_pair_powers(u, beams))


def abp_ratio_metric(y_vec: np.ndarray, beams_x: np.ndarray, beams_y: np.ndarray) -> np.ndarray:
    """Measured 2-vector [zeta_u, zeta_v] from the shared pilot snapshot: the powers of the beams
    vec(w_x w_y^H) from squinted_weights rows, u squinted by +delta and -delta, then v."""
    rows_x, rows_y = [0, 2, 1, 1], [1, 1, 0, 2]
    w = outer(beams_x[..., rows_x, :], beams_y[..., rows_y, :].conj())
    p = abs2(vdot(vec(w), y_vec[..., None, :]))
    return _pair_ratio(p[..., ::2], p[..., 1::2])


class AbpTracker:
    """EKF over the auxiliary-beam-pair ratio metric.

    The ratio metric is exactly invariant to the complex channel gain, so
    no gain model is needed.  The Jacobian is a central difference of the
    noiseless ratio curve.  The measurement covariance propagates the
    known element-noise variance through the beam powers ("delta" mode,
    the default); "fixed" mode uses the flat sigma_n^2 * I_2 instead.
    """

    _FD_STEP = 1e-5

    def __init__(self, cfg: ScenarioConfig, state: TrackerState):
        self.cfg = cfg
        self.state = state
        self.sigma2, self.sigma2_sq = self.noise_terms(cfg)
        self.codebook = build_codebook(cfg)
        # each axis's squinted weights around the codebook axis angles
        self.weights = [squinted_weights(self.codebook.axis_angles, cfg.squint, n)
                        for n in (cfg.n_x, cfg.n_y)]

    frame_cost = staticmethod(lambda k2: (2, k2))  # (measurement size, pilot slots) per frame

    @staticmethod
    def noise_terms(cfg: ScenarioConfig) -> tuple[float, float]:
        """Element noise variance at unit gain and its square, the delta-method Q_n's
        noise terms; OverflowError where the square leaves the float range."""
        sigma2 = noise_variance(cfg, 1.0, cfg.n)
        return sigma2, sigma2**2

    def _beams(self, x_pred: np.ndarray) -> list[np.ndarray]:
        """Each axis's squinted weights around the codebook axis angle nearest x_pred."""
        nearest = self.codebook.nearest_axis_index
        return [w[nearest(x_pred[..., i])] for i, w in enumerate(self.weights)]

    def _axis_model(self, u, beams: np.ndarray, n_other: int) -> tuple:
        """Noiseless ratio at u, its central-difference slope, and its
        variance: sigma_n^2 in "fixed" mode, else the delta-method one
        (the gain magnitude cancels)."""
        h = self._FD_STEP
        p_plus, p_minus = _axis_pair_powers(u, beams)
        ends = abp_ratio_curve(u + np.reshape([h, -h], (2,) + (1,) * np.ndim(u)), beams)
        slope = (ends[0] - ends[1]) / (2 * h)
        zeta = _pair_ratio(p_plus, p_minus)
        if self.cfg.abp_q_n == "fixed":
            return zeta, slope, self.cfg.sigma_n_sq
        # cross-axis pattern scales both powers; it cancels in zeta but
        # sets the per-beam signal level seen against the element noise
        p_plus *= n_other
        p_minus *= n_other
        total = p_plus + p_minus
        var_p = 2.0 * self.sigma2 * p_plus + self.sigma2_sq
        var_m = 2.0 * self.sigma2 * p_minus + self.sigma2_sq
        square = np.float_power
        dzp = 2.0 * p_minus / square(total, 2)
        dzm = 2.0 * p_plus / square(total, 2)
        return zeta, slope, np.maximum(square(dzp, 2) * var_p + square(dzm, 2) * var_m, _Q_N_FLOOR)

    def step(self, y: np.ndarray) -> dict:
        cfg = self.cfg
        pred = predict(self.state, cfg.f, cfg.q_p)
        beams = self._beams(pred.x)
        zeta = abp_ratio_metric(vec(y), *beams)
        axes = [self._axis_model(pred.x[..., i], b, n)
                for i, (b, n) in enumerate(zip(beams, (cfg.n_y, cfg.n_x)))]
        z_hat, slopes, variances = (np.stack(v, axis=-1) for v in zip(*axes))
        new, innovation, _ = update(pred, zeta, diag(slopes), diag(variances), z_hat)
        self.state, innovation = settle(pred, new, innovation)
        return step_result(innovation)

    def reinitialize(self, mask: np.ndarray, state: TrackerState):
        """Restart the trials in mask from state."""
        self.state = state.where(mask, self.state)
