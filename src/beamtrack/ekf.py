"""EKF recursion over the monopulse measurement model.

The measurement function is g(u, v) = (tan(u/2), tan(v/2)).  The default
Jacobian is the small-angle constant 0.5 * I; the exact diagonal
0.5 * sec^2(./2) form is available for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementFailure


@dataclass(frozen=True)
class TrackerState:
    """State estimate and error covariance of any EKF variant."""

    x: np.ndarray               # shape (2,)
    p: np.ndarray               # shape (2, 2), symmetric PSD


def measurement_fn(x: np.ndarray) -> np.ndarray:
    """g(x) = (tan(u/2), tan(v/2))."""
    return np.tan(np.asarray(x, dtype=float) / 2.0)


def predict(state: TrackerState, f: np.ndarray, q_p: np.ndarray) -> TrackerState:
    """Time update: x^- = F x, P^- = F P F^T + Q_p."""
    x_pred = f @ state.x
    p_pred = f @ state.p @ f.T + q_p
    return TrackerState(x=x_pred, p=_symmetrize(p_pred))


def jacobian(x_pred: np.ndarray, mode: str = "paper-approx") -> np.ndarray:
    """Measurement Jacobian G at the predicted state.

    "paper-approx" returns the constant 0.5 * I; "exact" returns
    diag(0.5 sec^2(u/2), 0.5 sec^2(v/2)) and fails the frame's measurement
    (MeasurementFailure) at the tan singularity.
    """
    if mode == "paper-approx":
        return 0.5 * np.eye(2)
    if mode == "exact":
        x = np.asarray(x_pred, dtype=float)
        if np.any(np.abs(x) >= np.pi - 1e-6):
            raise MeasurementFailure("exact Jacobian singular at |angle| -> pi")
        return np.diag(0.5 / np.cos(x / 2.0) ** 2)
    raise ValueError(f"unknown Jacobian mode {mode!r}")


def update(
    pred: TrackerState,
    r: np.ndarray,
    g_mat: np.ndarray,
    q_n: np.ndarray,
    r_hat: np.ndarray | None = None,
) -> tuple[TrackerState, np.ndarray, np.ndarray]:
    """Measurement update; returns (state, innovation, kalman_gain).

    innovation = r - r_hat, where r_hat defaults to the monopulse model
    g(x^-); K = P^- G^T S^-1; P = P^- - K S K^T, symmetrized against
    round-off drift.  A singular S (Q_n negligible next to G P^- G^T) is a
    MeasurementFailure: the frame gets no update.
    """
    if r_hat is None:
        r_hat = measurement_fn(pred.x)
    innovation = np.asarray(r, dtype=float) - r_hat
    s = g_mat @ pred.p @ g_mat.T + q_n
    try:
        k = np.linalg.solve(s.T, (pred.p @ g_mat.T).T).T
    except np.linalg.LinAlgError as exc:
        raise MeasurementFailure(f"singular innovation covariance: {exc}") from exc
    x_new = pred.x + k @ innovation
    p_new = _symmetrize(pred.p - k @ s @ k.T)
    return TrackerState(x=x_new, p=p_new), innovation, k


def step_result(innovation: np.ndarray | None = None, bound: float = float("nan")) -> dict:
    """A tracker step's outcome; the new estimate is the tracker's `state`.

    Without an innovation the frame had no usable measurement and the
    innovation norm is NaN.  `bound` is the MSE bound of a tracker that
    computes one, NaN otherwise.
    """
    valid = innovation is not None
    return {
        "meas_valid": valid,
        "innovation_norm": float(np.linalg.norm(innovation)) if valid else float("nan"),
        "bound": bound,
    }


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) / 2.0


@dataclass
class InnovationNoiseEstimator:
    """Innovation-based running estimate of the measurement covariance.

    Keeps the last `window` innovations together with the predicted
    innovation covariance contribution G P^- G^T; the estimate is the
    diagonal sample covariance of the innovations minus the mean predicted
    contribution, floored elementwise.
    """

    window: int = 50
    floor: float = 1e-9
    _innovations: list = field(default_factory=list)
    _gpg_diags: list = field(default_factory=list)

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be at least 2")

    def push(self, innovation: np.ndarray, g_mat: np.ndarray, p_pred: np.ndarray):
        self._innovations.append(np.asarray(innovation, dtype=float))
        self._gpg_diags.append(np.diag(g_mat @ p_pred @ g_mat.T).copy())
        if len(self._innovations) > self.window:
            self._innovations.pop(0)
            self._gpg_diags.pop(0)

    def estimate(self, prior: np.ndarray) -> np.ndarray:
        """Current Q_n estimate, or the prior while history is short."""
        if len(self._innovations) < self.window:
            return np.asarray(prior, dtype=float)
        innov = np.array(self._innovations)
        raw = innov.var(axis=0, ddof=1) - np.mean(self._gpg_diags, axis=0)
        return np.diag(np.maximum(raw, self.floor))


def initial_state(x0: np.ndarray, sigma_init: float) -> TrackerState:
    """Initial tracker state with P0 = sigma_init^2 * I."""
    return TrackerState(
        x=np.asarray(x0, dtype=float).copy(),
        p=np.eye(2) * sigma_init**2,
    )
