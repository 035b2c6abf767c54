"""Comparison trackers: codebook-beamforming EKF and auxiliary-beam-pair EKF.

Both baselines measure beamformed pilot observations instead of the raw
snapshot.  The codebook tracker stacks real/imag parts of all K^2 beam
outputs (measurement dimension 2*K^2); the auxiliary-beam-pair (ABP)
tracker forms a gain-invariant power-ratio metric around the codebook beam
nearest the prediction (measurement dimension 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import beamforming_weight, noise_variance, steering_vector
from .ekf import TrackerState, predict, step_result, update
from .errors import MeasurementFailure

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

    def nearest_axis_index(self, angle: float) -> int:
        return int(np.argmin(np.abs(self.axis_angles - angle)))


def build_codebook(cfg: ScenarioConfig) -> Codebook:
    """DFT-style grid: K = cfg.k_beams uniformly spaced spatial angles per axis."""
    k = cfg.k_beams
    axis = -np.pi + 2.0 * np.pi * np.arange(k) / k
    cols = [beamforming_weight((u, v), cfg) for u in axis for v in axis]
    return Codebook(axis_angles=axis, w_h=np.array(cols).conj())


def squinted_weights(centers: np.ndarray, delta: float, n: int) -> np.ndarray:
    """Unit axis weights steering_vector(a, n)/sqrt(n) at a = c + delta, c and c - delta
    for each center c, shape (len(centers), 3, n); ABP's table per axis has the codebook's
    axis angles as centers and is indexed by Codebook.nearest_axis_index."""
    return np.array([[steering_vector(a, n) / np.sqrt(n) for a in (c + delta, c, c - delta)]
                     for c in centers])


def _stack_reim(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def codebook_measurement(
    y_vec: np.ndarray,
    codebook: Codebook,
) -> np.ndarray:
    """Beamform the pilot snapshot on every codebook beam; stack re/im."""
    obs = codebook.w_h @ y_vec
    return _stack_reim(obs)


def codebook_model(
    x: np.ndarray,
    cfg: ScenarioConfig,
    gain: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless observations of the unit pilot at x on the scenario's codebook beams,
    and their analytic (2K^2 x 2) Jacobian, from one pair of steering vectors."""
    ax = steering_vector(x[0], cfg.n_x)
    ay = steering_vector(x[1], cfg.n_y)
    w_h = cfg.codebook.w_h
    h_vec = (1.0 * np.outer(ax, ay.conj())).ravel()
    dax = -1j * np.arange(cfg.n_x) * ax
    day = -1j * np.arange(cfg.n_y) * ay
    # d vec(a_x a_y^H) / du and / dv; conj of a_y picks up +j*m
    du = np.outer(dax, ay.conj()).ravel()
    dv = np.outer(ax, (day.conj())).ravel()
    z_hat = _stack_reim(gain * (w_h @ h_vec))
    g = np.column_stack([_stack_reim(gain * (w_h @ du)), _stack_reim(gain * (w_h @ dv))])
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
        z = codebook_measurement(y.ravel(), cfg.codebook)
        z_hat, g = codebook_model(pred.x, cfg, self.alpha_pred)
        try:
            self.state, innovation, _ = update(pred, z, g, self.q_n, z_hat)
        except MeasurementFailure:
            self.state = pred
            return step_result()
        return step_result(innovation)

    def reinitialize(self, state: TrackerState):
        self.state = state


def _axis_pair_powers(u: float, beams: np.ndarray) -> tuple[float, float]:
    """Noiseless powers at spatial angle u of the +/- squinted rows of squinted_weights."""
    a = steering_vector(u, beams.shape[1])
    return abs(np.vdot(beams[0], a)) ** 2, abs(np.vdot(beams[2], a)) ** 2


def _pair_ratio(p_plus: float, p_minus: float) -> float:
    """Ratio (p+ - p-) / (p+ + p-) of a squinted beam pair's powers."""
    total = p_plus + p_minus
    if total < _POWER_FLOOR:
        raise MeasurementFailure("both squinted-beam powers below floor")
    return (p_plus - p_minus) / total


def abp_ratio_curve(u: float, beams: np.ndarray) -> float:
    """Noiseless ratio metric zeta(u) for one axis, beams from squinted_weights; lies in [-1, 1]."""
    return _pair_ratio(*_axis_pair_powers(u, beams))


def abp_ratio_metric(y_vec: np.ndarray, beams_x: np.ndarray, beams_y: np.ndarray) -> np.ndarray:
    """Measured 2-vector [zeta_u, zeta_v] from the shared pilot snapshot: the powers of the beams
    vec(w_x w_y^H) from squinted_weights rows, u squinted by +delta and -delta, then v."""
    p = [abs(np.vdot(np.outer(beams_x[i], beams_y[j].conj()).ravel(), y_vec)) ** 2
         for i, j in ((0, 1), (2, 1), (1, 0), (1, 2))]
    return np.array([_pair_ratio(p[0], p[1]), _pair_ratio(p[2], p[3])])


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

    frame_cost = staticmethod(lambda k2: (2, k2))  # (measurement size, pilot slots) per frame

    @staticmethod
    def noise_terms(cfg: ScenarioConfig) -> tuple[float, float]:
        """Element noise variance at unit gain and its square, the delta-method Q_n's
        noise terms; OverflowError where the square leaves the float range."""
        sigma2 = noise_variance(cfg, 1.0, cfg.n)
        return sigma2, sigma2**2

    def _beams(self, x_pred: np.ndarray) -> list[np.ndarray]:
        """Each axis's squinted weights around the codebook axis angle nearest x_pred."""
        nearest = self.cfg.codebook.nearest_axis_index
        return [w[nearest(a)] for w, a in zip(self.cfg.abp_weights, x_pred)]

    def _axis_model(
        self, u: float, beams: np.ndarray, n_other: int
    ) -> tuple[float, float, float]:
        """Noiseless ratio at u, its central-difference slope, and its
        variance: sigma_n^2 in "fixed" mode, else the delta-method one
        (the gain magnitude cancels)."""
        h = self._FD_STEP
        p_plus, p_minus = _axis_pair_powers(u, beams)
        ends = [abp_ratio_curve(u + s, beams) for s in (h, -h)]
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
        dzp = 2.0 * p_minus / total**2
        dzm = 2.0 * p_plus / total**2
        return zeta, slope, max(dzp**2 * var_p + dzm**2 * var_m, _Q_N_FLOOR)

    def step(self, y: np.ndarray) -> dict:
        cfg = self.cfg
        pred = predict(self.state, cfg.f, cfg.q_p)
        beams = self._beams(pred.x)
        try:
            zeta = abp_ratio_metric(y.ravel(), *beams)
            axes = [self._axis_model(*a) for a in zip(pred.x, beams, (cfg.n_y, cfg.n_x))]
            z_hat, slopes, variances = (np.array(v) for v in zip(*axes))
            q_n = np.diag(variances)
            self.state, innovation, _ = update(pred, zeta, np.diag(slopes), q_n, z_hat)
        except MeasurementFailure:
            self.state = pred
            return step_result()
        return step_result(innovation)

    def reinitialize(self, state: TrackerState):
        self.state = state
