"""The tracker protocol, the EKF recursion every tracker runs, and the proposed tracker.

Tracker is the base of the three schemes' trackers, the proposed monopulse
EKF and the codebook and ABP baselines: one EKF fed by different measurement
models, each with its own step.  ProposedTracker, the scheme under study,
lives here beside its filter: it measures the monopulse signal
(beamtrack.monopulse) and reports the MSE bound (beamtrack.analysis); the
baselines, which measure beamformed signals, are in beamtrack.baselines.  The
monopulse measurement function is g(u, v) = (tan(u/2), tan(v/2)).  The default
Jacobian is the small-angle constant 0.5 * I; the exact diagonal
0.5 * sec^2(./2) form is available for ablation.

States, measurements and covariances may carry leading batch axes (one
entry per trial).  An entry without a usable measurement carries NaN: in
its measurement, its Jacobian or its gain, also when no entry of the batch
has one.  update turns such an entry's frame into a predict-only one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import bound_step
from .arrays import diag, matvec, norm
from .monopulse import extract_measurement


@dataclass(frozen=True)
class TrackerState:
    """State estimate and error covariance of any EKF variant."""

    x: np.ndarray               # shape (..., 2)
    p: np.ndarray               # shape (..., 2, 2), symmetric PSD

    def where(self, mask: np.ndarray, other: "TrackerState") -> "TrackerState":
        """This state for the batch entries in mask, other's elsewhere."""
        return TrackerState(x=np.where(mask[..., None], self.x, other.x),
                            p=np.where(mask[..., None, None], self.p, other.p))


class Tracker:
    """A scheme's EKF over a batch of trials, the protocol each scheme's tracker keeps.

    A run builds one tracker for a block of trials as Tracker(cfg, state): the scenario
    config, from which it reads every piece it does not own, and the initial state, with a
    leading trial axis.  observe(y) turns pilot snapshots with any leading axes into what
    step reads; a run calls it on a chunk of frames at once.  step(obs) runs once per frame
    on the batch's observations, leaves the new estimate in `state` and returns
    step_result's dict; each subclass writes its own.  frame_cost(K^2) gives the
    (measurement size, pilot slots) per frame that the complexity ledger counts.
    """

    def __init__(self, cfg, state: TrackerState):
        self.cfg = cfg
        self.state = state

    def reinitialize(self, mask: np.ndarray, state: TrackerState):
        """Restart the trials in mask from state."""
        self.state = state.where(mask, self.state)


def measurement_fn(x: np.ndarray) -> np.ndarray:
    """g(x) = (tan(u/2), tan(v/2))."""
    return np.tan(x / 2.0)


def predict(state: TrackerState, f: np.ndarray, q_p: np.ndarray) -> TrackerState:
    """Time update: x^- = F x, P^- = F P F^T + Q_p."""
    x_pred = matvec(f, state.x)
    p_pred = f @ state.p @ f.T + q_p
    return TrackerState(x=x_pred, p=_symmetrize(p_pred))


def jacobian(x_pred: np.ndarray, mode: str = "paper-approx") -> np.ndarray:
    """Measurement Jacobian G at the predicted state.

    "paper-approx" returns the constant 0.5 * I; "exact" returns
    diag(0.5 sec^2(u/2), 0.5 sec^2(v/2)), NaN for an entry at the tan
    singularity, whose measurement fails.  ScenarioConfig allows these two
    modes only; any other mode is "exact".
    """
    if mode == "paper-approx":
        return 0.5 * np.eye(2)
    singular = np.any(np.abs(x_pred) >= np.pi - 1e-6, axis=-1)
    d = np.where(singular[..., None], np.nan, 0.5 / np.cos(x_pred / 2.0) ** 2)
    return diag(d)


def _gain(s: np.ndarray, pgt: np.ndarray) -> np.ndarray:
    """K = P^- G^T S^-1 as solve(S^T, (P^- G^T)^T)^T; NaN for an entry whose S is singular."""
    try:
        return np.linalg.solve(s.mT, pgt.mT).mT
    except np.linalg.LinAlgError:
        pass
    # one singular S fails only its own entry
    k = np.full(pgt.shape, np.nan)
    for i in np.ndindex(s.shape[:-2]):
        try:
            k[i] = np.linalg.solve(s[i].T, pgt[i].T).T
        except np.linalg.LinAlgError:
            continue
    return k


def update(
    pred: TrackerState,
    r: np.ndarray,
    g_mat: np.ndarray,
    q_n: np.ndarray,
    r_hat: np.ndarray | None = None,
    s: np.ndarray | None = None,
) -> tuple[TrackerState, np.ndarray, np.ndarray]:
    """Measurement update; returns (state, innovation, kalman_gain).

    innovation = r - r_hat, where r_hat defaults to the monopulse model
    g(x^-); K = P^- G^T S^-1; P = P^- - K S K^T, symmetrized against
    round-off drift.  S = G P^- G^T + Q_n is formed in `s` when given, an
    array of S's shape that a caller reuses from update to update.  A
    singular S (Q_n negligible next to G P^- G^T) fails the entry's
    measurement: its gain is NaN.  An entry whose updated x or P is not
    finite keeps its prediction (a predict-only frame) and gets a NaN
    innovation row; its gain is returned as computed.
    """
    if r_hat is None:
        r_hat = measurement_fn(pred.x)
    innovation = r - r_hat
    s = np.matmul(g_mat @ pred.p, g_mat.mT, out=s)
    s += q_n
    k = _gain(s, pred.p @ g_mat.mT)
    new = TrackerState(pred.x + matvec(k, innovation), _symmetrize(pred.p - k @ s @ k.mT))
    ok = np.isfinite(new.x).all(axis=-1) & np.isfinite(new.p).all(axis=(-2, -1))
    if ok.all():
        return new, innovation, k
    return new.where(ok, pred), np.where(ok[..., None], innovation, np.nan), k


def step_result(innovation: np.ndarray, bound=float("nan")) -> dict:
    """A tracker step's outcome; the new estimate is the tracker's `state`.

    An entry whose innovation is a NaN row had no usable measurement: its innovation norm
    and bound are NaN.  `bound` is the MSE bound of a tracker that computes one, NaN
    otherwise.  Values are Python scalars, or lists of them with one per batch entry, not
    arrays: the benchmark's tracer (bench/tracing.py) takes `not result["meas_valid"]` of a
    baseline step, which raises on an array of two or more entries, and tests compare the
    flags with `is True`, `is False` or `==` a list.
    """
    valid = ~np.isnan(innovation).any(axis=-1)
    return {
        "meas_valid": valid.tolist(),
        "innovation_norm": norm(innovation).tolist(),
        "bound": np.where(valid, bound, np.nan).tolist(),
    }


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.mT) / 2.0


@dataclass
class InnovationNoiseEstimator:
    """Innovation-based running estimate of the measurement covariance.

    Keeps the last `window` innovations together with the predicted
    innovation covariance contribution G P^- G^T, in time order, for each
    entry of a batch of shape `batch`; the estimate is the diagonal sample
    covariance of the innovations minus the mean predicted contribution,
    floored elementwise.  A sample variance needs a window of at least two; a
    run's is its config's q_n_window, whose range the config checks.
    """

    window: int = 50
    floor: float | np.ndarray = 1e-9
    batch: tuple = ()

    def __post_init__(self):
        self.floor = np.broadcast_to(self.floor, self.batch).copy()
        # rows of [innovation, diag(G P^- G^T)]; each entry's history is its last `count`
        # rows, and rows grow with the pushes, up to window
        self._history = np.zeros((*self.batch, 0, 4))
        self._count = np.zeros(self.batch, dtype=int)

    def push(self, innovation: np.ndarray, g_mat: np.ndarray, p_pred: np.ndarray):
        """Append each entry's innovation; an entry with a NaN innovation appends nothing."""
        gpg = np.diagonal(g_mat @ p_pred @ g_mat.mT, axis1=-2, axis2=-1)
        new = ~np.isnan(innovation).any(axis=-1)
        row = np.concatenate([innovation, gpg], axis=-1)[..., None, :]
        pushed = np.concatenate([self._history, row], axis=-2)
        if not new.all():
            # an entry that appends nothing keeps its rows last
            kept = np.concatenate([np.zeros_like(row), self._history], axis=-2)
            pushed = np.where(new[..., None, None], pushed, kept)
        self._history = pushed[..., -self.window:, :]
        self._count += new

    def reset(self, mask: np.ndarray):
        """Forget the history of the entries in mask."""
        self._count[mask] = 0

    def estimate(self, prior: np.ndarray) -> np.ndarray:
        """Current Q_n estimate, or the prior while an entry's history is short."""
        ready = self._count >= self.window
        if not ready.any():
            return prior
        raw = self._history[..., :2].var(axis=-2, ddof=1) - self._history[..., 2:].mean(axis=-2)
        est = diag(np.maximum(raw, self.floor[..., None]))
        return np.where(ready[..., None, None], est, prior)


class ProposedTracker(Tracker):
    """The monopulse-measurement EKF (the scheme under study)."""

    frame_cost = staticmethod(lambda k2: (2, 1))  # (measurement size, pilot slots) per frame

    def __init__(self, cfg, state: TrackerState):
        super().__init__(cfg, state)
        self.q_n_prior = np.eye(2) * cfg.sigma_n_sq
        # floor the estimate at a tenth of the design prior: an estimate
        # near zero (transient-biased window) would saturate the gain and
        # inject raw measurement noise into the state.  A fixed Q_n reads no
        # window, so that mode keeps none
        self.estimator = InnovationNoiseEstimator(
            window=cfg.q_n_window, floor=cfg.sigma_n_sq / 10.0, batch=state.x.shape[:-1]
        ) if cfg.q_n_mode == "estimated" else None
        self.q_n_relaxed = np.eye(2) * cfg.sigma_nb_sq   # the bound's Q_n'

    def observe(self, y: np.ndarray) -> np.ndarray:
        """The monopulse measurements r of pilot snapshots y, shape (..., 2)."""
        return extract_measurement(y, self.cfg).r

    def step(self, r: np.ndarray) -> dict:
        """One frame from the monopulse measurements r (observe) of the batch's snapshots."""
        cfg = self.cfg
        p_prev = self.state.p
        pred = predict(self.state, cfg.f, cfg.q_p)
        g = jacobian(pred.x, cfg.jacobian_mode)
        q_n = self.q_n_prior if self.estimator is None else self.estimator.estimate(self.q_n_prior)
        self.state, innovation, k = update(pred, r, g, q_n)
        if self.estimator is not None:
            self.estimator.push(innovation, g, pred.p)
        return step_result(innovation, bound_step(p_prev, k, g, cfg.f, cfg.q_p, self.q_n_relaxed))

    def reinitialize(self, mask: np.ndarray, state: TrackerState):
        """Restart the trials in mask from state, with an empty Q_n window."""
        super().reinitialize(mask, state)
        if self.estimator is not None:
            self.estimator.reset(mask)
            # a restarted window floors its estimate at the estimator's default, not the
            # prior's tenth; outputs since the first release depend on it
            self.estimator.floor[mask] = InnovationNoiseEstimator.floor


def initial_state(x0: np.ndarray, sigma_init: float) -> TrackerState:
    """Initial tracker state with P0 = sigma_init^2 * I."""
    x = np.asarray(x0, dtype=float).copy()
    return TrackerState(x=x, p=np.broadcast_to(np.eye(2) * sigma_init**2, (*x.shape, 2)).copy())
