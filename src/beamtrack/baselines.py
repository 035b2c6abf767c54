"""Comparison trackers: codebook-beamforming EKF and auxiliary-beam-pair EKF.

Both baselines measure beamformed pilot observations instead of the raw
snapshot.  The codebook tracker stacks real/imag parts of all K^2 beam
outputs (measurement dimension 2*K^2); the auxiliary-beam-pair (ABP)
tracker forms a gain-invariant power-ratio metric around the grid beam
nearest the prediction (measurement dimension 2).

Both subclass ekf.Tracker, which keeps the config and the state and restarts the
trials of a mask (reinitialize); each writes its own observe and step.  Each builds
only the beam table it reads, in its __init__, each table one batched call: the
codebook tracker its conjugated (K^2, N) weight matrix, ABP its axis angles and the
squinted weights around them per axis.  A run builds one tracker for all its trials.
Each tracker's observe(y) turns pilot snapshots with any leading axes into what its
step reads, and a run observes a chunk of frames at once: the codebook tracker its
stacked beam outputs, ABP the snapshot itself, as its beams follow the prediction.
Both step a batch of trials at once: states and observations carry a leading batch
axis.  ABP updates the batch in one ekf.update call, the codebook tracker in blocks of
consecutive trials, each block's 2K^2 x 2K^2 S stack formed in one reused array
(S_STACK_ENTRIES).  An entry whose measurement fails has a NaN measurement row, which
ekf.update turns into a predict-only frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .arrays import abs2, diag, matvec, outer, vdot, vec
from .channel import beamforming_weight, noise_variance, steering_vector
from .ekf import Tracker, TrackerState, predict, step_result, update

if TYPE_CHECKING:
    from .harness import ScenarioConfig

# Half the 3dB beamwidth in spatial-angle units; the standard squint for
# amplitude-comparison monopulse.
ABP_SQUINT_FACTOR = 0.445 * np.pi

_POWER_FLOOR = 1e-30

# Lower limit of each delta-method ratio variance.
_Q_N_FLOOR = 1e-8

# Most float64 entries in the codebook tracker's S stack (1 MiB): 8 trials at K = 8, 1 from K = 12.
S_STACK_ENTRIES = 2**17


def axis_angles(k: int) -> np.ndarray:
    """K uniformly spaced spatial angles per axis, strictly increasing over [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(k) / k


def build_codebook(cfg: ScenarioConfig) -> np.ndarray:
    """Conjugated unit-norm weights of the DFT-style grid of cfg.k_beams axis angles per
    axis, shape (K^2, N), (u, v) x-major."""
    axis = axis_angles(cfg.k_beams)
    pairs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return beamforming_weight(pairs, cfg).conj()


def squinted_weights(centers: np.ndarray, delta: float, n: int) -> np.ndarray:
    """Unit axis weights steering_vector(a, n)/sqrt(n) at a = c + delta, c and c - delta
    for each center c, shape (len(centers), 3, n); ABP's table per axis has axis_angles as
    centers."""
    return steering_vector(np.add.outer(centers, [delta, 0.0, -delta]), n) / np.sqrt(n)


def _stack_reim(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def codebook_measurement(y_vec: np.ndarray, w_h: np.ndarray) -> np.ndarray:
    """Beamform the pilot snapshot on every codebook beam of build_codebook's w_h; stack re/im."""
    return _stack_reim(matvec(w_h, y_vec))


def codebook_model(
    x: np.ndarray,
    cfg: ScenarioConfig,
    w_h: np.ndarray,
    gain: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless observations of the unit pilot at x on the codebook beams of w_h, and their
    analytic (2K^2 x 2) Jacobian, from one pair of steering vectors."""
    ax = steering_vector(x[..., 0], cfg.n_x)
    ay = steering_vector(x[..., 1], cfg.n_y)
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


class CodebookTracker(Tracker):
    """EKF over the stacked codebook beam observations.

    The complex channel gain is not observable to the tracker; it uses the
    conditional mean rho^k (alpha_0 = 1) as the predicted gain and folds the
    residual gain uncertainty isotropically into its measurement
    covariance (gain_uncertainty_var scaled by the mean beam power).
    """

    def __init__(self, cfg: ScenarioConfig, state: TrackerState):
        super().__init__(cfg, state)
        self.alpha_pred = 1.0 + 0.0j
        m = 2 * cfg.k_beams**2
        self.q_n = self.noise_var(cfg) * np.eye(m)
        # update forms each block's S stack here (S_STACK_ENTRIES): a fresh stack per update
        # costs more in the allocator's mapping and trimming than in the arithmetic
        self.s = np.empty((max(1, min(state.x.size // 2, S_STACK_ENTRIES // m**2)), m, m))
        self.w_h = build_codebook(cfg)

    frame_cost = staticmethod(lambda k2: (2 * k2, k2))  # (measurement size, pilot slots) per frame

    @staticmethod
    def noise_var(cfg: ScenarioConfig) -> float:
        """Per-component noise variance of the stacked re/im beam observations plus the gain
        uncertainty scaled by the mean beam power; DFT beams are near-orthonormal, so Q_n
        is this times I.  A gain without innovations (cfg.gain_var zero) never varies and
        adds no uncertainty."""
        guv = cfg.gain_uncertainty_var if cfg.gain_var > 0 else 0.0
        return noise_variance(cfg, 1.0) / 2.0 + 0.5 * guv * cfg.n / cfg.k_beams**2

    def observe(self, y: np.ndarray) -> np.ndarray:
        """The stacked beam outputs of pilot snapshots y, shape (..., 2K^2)."""
        return codebook_measurement(vec(y), self.w_h)

    def step(self, z: np.ndarray) -> dict:
        """One frame from the observations z (observe) of the batch's snapshots."""
        cfg = self.cfg
        self.alpha_pred *= cfg.rho_gain
        pred = predict(self.state, cfg.f, cfg.q_p)
        z_hat, g = codebook_model(pred.x, cfg, self.w_h, self.alpha_pred)
        # update runs per block of len(self.s) consecutive trials, leading axes flattened; a
        # stacked matmul or solve calls the 2-D routine per matrix, so bytes ignore the block
        x, p = pred.x.reshape(-1, 2), pred.p.reshape(-1, 2, 2)
        z, z_hat, g = (a.reshape(len(x), *a.shape[pred.x.ndim - 1:]) for a in (z, z_hat, g))
        innovation = np.empty(z.shape)
        for i in range(0, len(x), len(self.s)):
            b = slice(i, i + len(self.s))
            new, innovation[b], _ = update(TrackerState(x[b], p[b]), z[b], g[b], self.q_n,
                                           z_hat[b], self.s[:len(x[b])])
            x[b], p[b] = new.x, new.p
        self.state = TrackerState(x.reshape(pred.x.shape), p.reshape(pred.p.shape))
        return step_result(innovation.reshape(pred.x.shape[:-1] + z.shape[-1:]))


def _axis_pair_powers(u, beams: np.ndarray):
    """Noiseless powers at spatial angle u of the +/- squinted rows of squinted_weights."""
    a = steering_vector(u, beams.shape[-1])
    p = abs2(vdot(beams[..., ::2, :], a[..., None, :]))
    return p[..., 0], p[..., 1]


def _pair_ratio(p_plus, p_minus):
    """Ratio (p+ - p-) / (p+ + p-) of a squinted beam pair's powers; NaN for an entry whose
    summed power is below the floor, as the division by NaN gives it."""
    total = p_plus + p_minus
    return (p_plus - p_minus) / np.where(total < _POWER_FLOOR, np.nan, total)


def abp_ratio_metric(y_vec: np.ndarray, beams_x: np.ndarray, beams_y: np.ndarray) -> np.ndarray:
    """Measured 2-vector [zeta_u, zeta_v] from the shared pilot snapshot: the powers of the beams
    vec(w_x w_y^H) from squinted_weights rows, u squinted by +delta and -delta, then v."""
    rows_x, rows_y = [0, 2, 1, 1], [1, 1, 0, 2]
    w = outer(beams_x[..., rows_x, :], beams_y[..., rows_y, :].conj())
    p = abs2(vdot(vec(w), y_vec[..., None, :]))
    return _pair_ratio(p[..., ::2], p[..., 1::2])


class AbpTracker(Tracker):
    """EKF over the auxiliary-beam-pair ratio metric.

    The ratio metric is exactly invariant to the complex channel gain, so
    no gain model is needed.  The Jacobian is a central difference of the
    noiseless ratio curve.  The measurement covariance propagates the
    known element-noise variance through the beam powers ("delta" mode,
    the default); "fixed" mode uses the flat sigma_n^2 * I_2 instead.
    """

    _FD_STEP = 1e-5

    def __init__(self, cfg: ScenarioConfig, state: TrackerState):
        super().__init__(cfg, state)
        self.sigma2, self.sigma2_sq = self.noise_terms(cfg)
        self.axis = axis_angles(cfg.k_beams)
        self.weights = [squinted_weights(self.axis, cfg.squint, n) for n in (cfg.n_x, cfg.n_y)]

    frame_cost = staticmethod(lambda k2: (2, k2))  # (measurement size, pilot slots) per frame

    @staticmethod
    def noise_terms(cfg: ScenarioConfig) -> tuple[float, float]:
        """Element noise variance at unit gain and its square, the delta-method Q_n's
        noise terms; OverflowError where the square leaves the float range."""
        sigma2 = noise_variance(cfg, 1.0)
        return sigma2, sigma2**2

    def _beams(self, x_pred: np.ndarray) -> list[np.ndarray]:
        """Each axis's squinted weights around the axis angle nearest x_pred (the lower one
        at a tie; no wrap-around at +/-pi)."""
        nearest = np.argmin(np.abs(self.axis - x_pred[..., None]), axis=-1)
        return [w[nearest[..., i]] for i, w in enumerate(self.weights)]

    def _axis_model(self, u, beams: np.ndarray, n_other: int) -> tuple:
        """Noiseless ratio at u, its central-difference slope, and its
        variance: sigma_n^2 in "fixed" mode, else the delta-method one
        (the gain magnitude cancels); one pattern evaluation at u, u + h and u - h."""
        h = self._FD_STEP
        p_plus, p_minus = _axis_pair_powers(
            u + np.reshape([0.0, h, -h], (3,) + (1,) * np.ndim(u)), beams)
        zeta, end_plus, end_minus = _pair_ratio(p_plus, p_minus)
        slope = (end_plus - end_minus) / (2 * h)
        if self.cfg.abp_q_n == "fixed":
            return zeta, slope, self.cfg.sigma_n_sq
        # cross-axis pattern scales both powers; it cancels in zeta but
        # sets the per-beam signal level seen against the element noise
        p_plus, p_minus = p_plus[0] * n_other, p_minus[0] * n_other
        total = p_plus + p_minus
        var_p = 2.0 * self.sigma2 * p_plus + self.sigma2_sq
        var_m = 2.0 * self.sigma2 * p_minus + self.sigma2_sq
        square = np.float_power
        dzp = 2.0 * p_minus / square(total, 2)
        dzm = 2.0 * p_plus / square(total, 2)
        return zeta, slope, np.maximum(square(dzp, 2) * var_p + square(dzm, 2) * var_m, _Q_N_FLOOR)

    @staticmethod
    def observe(y: np.ndarray) -> np.ndarray:
        """The pilot snapshots y themselves: the beams that measure them follow the prediction."""
        return y

    def step(self, y: np.ndarray) -> dict:
        """One frame from the batch's pilot snapshots y (observe)."""
        cfg = self.cfg
        pred = predict(self.state, cfg.f, cfg.q_p)
        beams = self._beams(pred.x)
        zeta = abp_ratio_metric(vec(y), *beams)
        axes = [self._axis_model(pred.x[..., i], b, n)
                for i, (b, n) in enumerate(zip(beams, (cfg.n_y, cfg.n_x)))]
        z_hat, slopes, variances = (np.stack(v, axis=-1) for v in zip(*axes))
        self.state, innovation, _ = update(pred, zeta, diag(slopes), diag(variances), z_hat)
        return step_result(innovation)
