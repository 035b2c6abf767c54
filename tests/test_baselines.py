"""Codebook-beamforming and auxiliary-beam-pair baseline trackers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from beamtrack import baselines
from beamtrack.baselines import (
    ABP_SQUINT_FACTOR,
    AbpTracker,
    CodebookTracker,
    abp_ratio_curve,
    abp_ratio_metric,
    build_codebook,
    codebook_measurement,
    codebook_model,
    squinted_weights,
)
from beamtrack.channel import (
    beamforming_weight,
    channel_matrix,
    complex_noise,
    noise_variance,
    steering_vector,
)
from beamtrack.ekf import initial_state, predict, settle, step_result, update
from beamtrack.errors import ConfigError
from beamtrack.harness import ScenarioConfig

from conftest import rank1_snapshot

# the default squint of an 8-element axis
DELTA_8 = ABP_SQUINT_FACTOR / 8


def _cfg(n_x=8, n_y=8, **kw):
    """A noiseless scenario whose trackers predict with F = I and Q_p = 1e-8 I."""
    base = dict(n_x=n_x, n_y=n_y, psi=0.0, sigma_u=1e-4, sigma_v=1e-4, snr_db=math.inf)
    return ScenarioConfig(**{**base, **kw})


def _beam_angles(cb):
    """The codebook's (u, v) beam directions, x-major like the rows of w_h."""
    return np.array([(u, v) for u in cb.axis_angles for v in cb.axis_angles])


def _weights(cb):
    """The codebook's (N, K^2) beam weights, unit-norm columns."""
    return cb.w_h.conj().T


def _h_vec(u, v, cfg, gain=1.0 + 0.0j):
    return rank1_snapshot(u, v, cfg, gain).ravel()


def _curve(u, center, delta, n):
    return abp_ratio_curve(u, squinted_weights([center], delta, n)[0])


def _metric(y_vec, center, delta, cfg):
    beams = (squinted_weights([c], delta, n)[0] for c, n in zip(center, (cfg.n_x, cfg.n_y)))
    return abp_ratio_metric(y_vec, *beams)


STEP_KEYS = {"meas_valid", "innovation_norm", "bound"}


class TestCodebook:
    def test_degenerate_single_beam(self):
        cfg = ScenarioConfig(n_x=2, n_y=2, codebook_k=1)
        cb = build_codebook(cfg)
        assert codebook_measurement(_h_vec(0.1, 0.2, cfg), cb).shape == (2,)
        assert cb.axis_angles.shape == (1,) and cb.w_h.shape == (1, 4)

    def test_k8_measurement_length(self):
        cfg = ScenarioConfig(n_x=8, n_y=8)
        cb = build_codebook(cfg)
        assert codebook_measurement(_h_vec(0.1, 0.2, cfg), cb).shape == (128,)

    def test_columns_are_beamforming_weights(self):
        cfg = ScenarioConfig(n_x=4, n_y=8)
        cb = build_codebook(cfg)
        for col, (u, v) in zip(_weights(cb).T, _beam_angles(cb)):
            assert np.array_equal(col, beamforming_weight(np.array([u, v]), cfg))

    def test_unit_norm_weights(self):
        cb = build_codebook(ScenarioConfig(n_x=4, n_y=4))
        assert np.allclose(np.linalg.norm(_weights(cb), axis=0), 1.0, atol=1e-12)

    def test_axis_angles_strictly_increasing(self):
        cb = build_codebook(ScenarioConfig(n_x=8, n_y=8))
        assert np.all(np.diff(cb.axis_angles) > 0)

    def test_rejects_empty(self):
        # the beam count is checked where the config is built
        with pytest.raises(ConfigError, match="codebook_k"):
            ScenarioConfig(n_x=4, n_y=4, codebook_k=0)

    def test_nearest_axis_angle(self):
        cb = build_codebook(ScenarioConfig(n_x=8, n_y=8))
        assert cb.nearest_axis_index(cb.axis_angles[3] + 0.01) == 3

    def test_conjugate_weights_built_once(self):
        self._check_conjugate_weights(ScenarioConfig(n_x=4, n_y=8))

    @pytest.mark.parametrize("k", [3, 1])
    def test_conjugate_weights_for_codebook_k(self, k):
        self._check_conjugate_weights(ScenarioConfig(n_x=4, n_y=8, codebook_k=k))

    @staticmethod
    def _check_conjugate_weights(cfg):
        cb = build_codebook(cfg)
        assert cb.w_h.shape == (cfg.k_beams**2, cfg.n)
        rows = [beamforming_weight(pair, cfg).conj() for pair in _beam_angles(cb)]
        assert np.array_equal(cb.w_h, np.array(rows))


class TestCodebookMeasurement:
    def test_aligned_beam_has_peak_magnitude(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        cb = build_codebook(cfg)
        j = 5
        u, v = _beam_angles(cb)[j]
        z = codebook_measurement(_h_vec(u, v, cfg), cb)
        mags = np.hypot(z[:16], z[16:])
        assert mags[j] == pytest.approx(np.sqrt(cfg.n), abs=1e-10)
        assert j == int(np.argmax(mags))

    def test_length(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        cb = build_codebook(cfg)
        assert codebook_measurement(_h_vec(0.1, 0.2, cfg), cb).shape == (32,)

    def test_predicted_matches_noiseless_measurement(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        cb = build_codebook(cfg)
        x = np.array([0.3, -0.8])
        z = codebook_measurement(_h_vec(x[0], x[1], cfg, gain=0.7 - 0.1j), cb)
        z_hat, _ = codebook_model(x, cfg, cb, 0.7 - 0.1j)
        assert np.allclose(z, z_hat, atol=1e-10)


class TestCodebookJacobian:
    def test_matches_finite_differences(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        cb = build_codebook(cfg)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            _, g = codebook_model(x, cfg, cb, 1.0)
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (codebook_model(xp, cfg, cb, 1.0)[0]
                      - codebook_model(xm, cfg, cb, 1.0)[0]) / (2 * h)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(g[:, i] - fd) / denom < 1e-5

    def test_stationary_at_beam_peak(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        cb = build_codebook(cfg)
        j = 6
        x = _beam_angles(cb)[j]
        z, g = codebook_model(x, cfg, cb, 1.0)
        k2 = 16
        # the aligned beam's response magnitude is at a pattern maximum, so
        # the derivative of |response_j|^2 vanishes: Re(conj(z_j) dz_j) = 0
        zc = z[j] + 1j * z[j + k2]
        dz = g[j, :] + 1j * g[j + k2, :]
        assert np.all(np.abs((zc.conjugate() * dz).real) < 1e-8)

    def test_linear_in_gain(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        cb = build_codebook(cfg)
        x = np.array([0.4, 0.9])
        _, g1 = codebook_model(x, cfg, cb, 1.0)
        _, g2 = codebook_model(x, cfg, cb, 2.0)
        assert np.allclose(g2, 2.0 * g1, atol=1e-12)


class TestCodebookTracker:
    def test_noiseless_convergence_within_five_frames(self):
        cfg = _cfg(4, 4, rho_gain=1.0, gain_uncertainty_var=0.0)
        truth = _beam_angles(build_codebook(cfg))[5] + np.array([0.05, -0.03])
        tracker = CodebookTracker(cfg, initial_state(truth + np.array([0.02, 0.02]), 0.05))
        y = rank1_snapshot(truth[0], truth[1], cfg)
        for _ in range(5):
            tracker.step(y)
        assert np.linalg.norm(tracker.state.x - truth) < 1e-3

    def test_measurement_dimension(self):
        cfg = _cfg(snr_db=10.0, rho_gain=1.0, gain_uncertainty_var=0.0)
        tracker = CodebookTracker(cfg, initial_state(np.zeros(2), 0.01))
        out = tracker.step(rank1_snapshot(0.1, 0.2, cfg))
        assert tracker.q_n.shape == (128, 128)
        z_hat, g = codebook_model(tracker.state.x, cfg, tracker.codebook, 1.0)
        assert z_hat.shape == (128,)
        assert g.shape == (128, 2)
        assert out.keys() == STEP_KEYS
        assert out["meas_valid"] is True
        assert np.isnan(out["bound"])

    def test_gain_without_innovations_adds_no_uncertainty(self):
        varying = CodebookTracker(_cfg(snr_db=10.0), initial_state(np.zeros(2), 0.01))
        fixed = CodebookTracker(_cfg(snr_db=10.0, rho_gain=1.0, gain_innovation_var=0.0),
                                initial_state(np.zeros(2), 0.01))
        noise = noise_variance(_cfg(snr_db=10.0), 1.0, 64) / 2.0
        assert fixed.q_n[0, 0] == noise
        assert varying.q_n[0, 0] == noise + 0.5 * 0.5 * 64 / 8**2

    def test_singular_innovation_covariance_predicts_only(self):
        # Q_n = 0 (noiseless, fixed gain) and P = 0 (no process noise, exact start): S = 0
        cfg = _cfg(rho_gain=1.0, gain_innovation_var=0.0, gain_uncertainty_var=0.0,
                   sigma_u=0.0, sigma_v=0.0)
        start = initial_state(np.array([0.1, 0.2]), 0.0)
        tracker = CodebookTracker(cfg, start)
        assert not tracker.q_n.any()
        out = tracker.step(rank1_snapshot(0.1, 0.2, cfg))
        assert out["meas_valid"] is False
        assert np.isnan(out["innovation_norm"])
        assert tracker.state.x.tobytes() == predict(start, cfg.f, cfg.q_p).x.tobytes()


class TestAbpRatio:
    def test_zero_at_center(self):
        assert _curve(0.5, 0.5, 0.2, 8) == pytest.approx(0.0, abs=1e-12)

    def test_positive_at_half_offset(self):
        assert _curve(0.1 + DELTA_8 / 2, 0.1, DELTA_8, 8) > 0

    def test_strictly_monotone_over_beam_support(self):
        half_beam = np.pi / 8  # half the codebook beam spacing for K = 8
        grid = np.linspace(-half_beam, half_beam, 200)
        vals = [_curve(0.0 + g, 0.0, DELTA_8, 8) for g in grid]
        assert np.all(np.diff(vals) > 0)

    def test_metric_in_range_and_matches_curve(self):
        cfg = ScenarioConfig(n_x=8, n_y=8)
        center = np.array([0.0, 0.0])
        y = _h_vec(0.1, -0.15, cfg, gain=2.0j)
        zeta = _metric(y, center, DELTA_8, cfg)
        assert np.all(np.abs(zeta) <= 1.0)
        assert zeta[0] == pytest.approx(_curve(0.1, 0.0, DELTA_8, 8), abs=1e-10)
        assert zeta[1] == pytest.approx(_curve(-0.15, 0.0, DELTA_8, 8), abs=1e-10)

    def test_gain_invariance(self):
        cfg = ScenarioConfig(n_x=8, n_y=8)
        center = np.array([0.0, 0.0])
        z1 = _metric(_h_vec(0.1, 0.05, cfg), center, DELTA_8, cfg)
        z2 = _metric(7.7j * _h_vec(0.1, 0.05, cfg), center, DELTA_8, cfg)
        assert np.allclose(z1, z2, atol=1e-12)

    def test_mirror_symmetry(self):
        cfg = ScenarioConfig(n_x=8, n_y=8)
        center = np.array([0.0, 0.0])
        zp = _metric(_h_vec(0.12, 0.07, cfg), center, DELTA_8, cfg)
        zm = _metric(_h_vec(-0.12, -0.07, cfg), center, DELTA_8, cfg)
        assert np.allclose(zp, -zm, atol=1e-10)

    def test_zero_power_measures_nan(self):
        cfg = ScenarioConfig(n_x=8, n_y=8)
        zeta = _metric(np.zeros(64, dtype=complex), np.array([0, 0]), DELTA_8, cfg)
        assert zeta.shape == (2,) and np.isnan(zeta).all()

    def test_offset_validation(self):
        for offset in (0.0, -0.1, math.nextafter(math.pi, 4.0)):
            with pytest.raises(ConfigError):
                ScenarioConfig(abp_offset=offset)
        assert ScenarioConfig(abp_offset=math.pi).squint == math.pi


def _abp_tracker(state, shape=(8, 8), **kw):
    return AbpTracker(_cfg(*shape, **kw), state)


class TestAbpTracker:
    def test_measurement_dimension(self):
        tracker = _abp_tracker(initial_state(np.zeros(2), 0.01))
        out = tracker.step(rank1_snapshot(0.1, 0.2, tracker.cfg))
        x = tracker.state.x
        zeta, slope, var = tracker._axis_model(x[0], tracker._beams(x)[0], tracker.cfg.n_y)
        assert abs(zeta) <= 1.0 and slope > 0 and var >= baselines._Q_N_FLOOR
        assert out.keys() == STEP_KEYS
        assert out["meas_valid"] is True
        assert np.isnan(out["bound"])

    def test_update_beats_prediction_only(self):
        # paired trials: same noise, with and without the measurement update
        cfg = _cfg(snr_db=20.0, snr_reference="element")
        rng = np.random.default_rng(77)
        wins = 0
        trials = 100
        for _ in range(trials):
            truth = rng.uniform(-0.1, 0.1, 2)
            x0 = truth + rng.normal(0, 0.02, 2)
            tracker = AbpTracker(cfg, initial_state(x0, 0.02))
            h = rank1_snapshot(truth[0], truth[1], cfg)
            var = noise_variance(cfg, float(np.mean(np.abs(h) ** 2)), cfg.n)
            err_upd, err_pred = None, np.linalg.norm(x0 - truth)
            for _ in range(5):
                y = h + complex_noise(h.shape, var, rng)
                tracker.step(y)
            err_upd = np.linalg.norm(tracker.state.x - truth)
            if err_upd < err_pred:
                wins += 1
        assert wins / trials > 0.9

    def test_wrong_center_beam_stalls(self):
        # truth two beams away from the selected center: the ratio curve
        # carries no usable slope there, so the filter cannot converge fast
        beam_spacing = 2 * np.pi / 8
        truth = np.array([2 * beam_spacing + 0.05, 0.0])
        # initialize at zero so the center beam stays wrong
        tracker = _abp_tracker(initial_state(np.zeros(2), 0.01))
        h = rank1_snapshot(truth[0], truth[1], tracker.cfg)
        for _ in range(5):
            tracker.step(h)
        assert np.linalg.norm(tracker.state.x - truth) > 0.5

    def test_measurement_failure_falls_back_to_prediction(self):
        tracker = _abp_tracker(initial_state(np.array([0.1, 0.1]), 0.01))
        out = tracker.step(np.zeros((8, 8), dtype=complex))
        assert out["meas_valid"] is False
        assert np.isnan(out["bound"])
        assert np.allclose(tracker.state.x, [0.1, 0.1])

    def test_q_n_source_validation(self):
        # the ABP's Q_n source is checked where the config is built
        with pytest.raises(ConfigError):
            _abp_tracker(initial_state(np.zeros(2), 0.01), abp_q_n="bogus")
        # "fixed" takes sigma_n^2 as is; "delta" propagates it through the ratio
        x = np.array([0.1, 0.2])
        fixed = _abp_tracker(initial_state(x, 0.01), abp_q_n="fixed", snr_db=10.0)
        delta = _abp_tracker(initial_state(x, 0.01), abp_q_n="delta", snr_db=10.0)
        beams = fixed._beams(x)[0]
        assert fixed._axis_model(x[0], beams, 8)[2] == fixed.cfg.sigma_n_sq
        assert delta._axis_model(x[0], beams, 8)[2] != delta.cfg.sigma_n_sq


# (n_x, n_y) array shapes; the ids keep these tests' established names
SHAPES = [(8, 8), (8, 16)]


def _shape_id(shape):
    return "ArrayConfig(n_x={}, n_y={})".format(*shape)


class TestAbpWeights:
    @pytest.mark.parametrize("shape, k", [pytest.param(s, None, id=_shape_id(s)) for s in SHAPES]
                             + [pytest.param((4, 8), k, id=f"{_shape_id((4, 8))}-codebook_k={k}")
                                for k in (3, 1)])
    def test_rows_are_squinted_steering_vectors(self, shape, k):
        tracker = _abp_tracker(initial_state(np.zeros(2), 0.01), shape, codebook_k=k)
        cb, delta = tracker.codebook, tracker.cfg.squint
        for table, n in zip(tracker.weights, shape):
            assert table.shape == (len(cb.axis_angles), 3, n)
            for c, rows in zip(cb.axis_angles, table):
                for row, angle in zip(rows, (c + delta, c, c - delta)):
                    assert np.array_equal(row, steering_vector(angle, n) / np.sqrt(n))

    @pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
    def test_metric_beams_are_beamforming_weights(self, shape, monkeypatch):
        tracker = _abp_tracker(initial_state(np.zeros(2), 0.01), shape)
        cfg, cb, (weights_x, weights_y) = tracker.cfg, tracker.codebook, tracker.weights
        delta, vdot, beams = cfg.squint, baselines.vdot, []
        # one call may take a stack of beams; each row is one beam
        monkeypatch.setattr(baselines, "vdot",
                            lambda w, y: beams.extend(w.reshape(-1, w.shape[-1])) or vdot(w, y))
        y = rank1_snapshot(0.3, -0.2, cfg).ravel()
        for ix, iy in [(0, 0), (3, 5), (7, 2)]:
            beams.clear()
            abp_ratio_metric(y, weights_x[ix], weights_y[iy])
            squints = [(0, delta), (0, -delta), (1, delta), (1, -delta)]
            assert len(beams) == len(squints)
            for w, (axis, offset) in zip(beams, squints):
                est = cb.axis_angles[[ix, iy]]
                est[axis] += offset
                assert np.array_equal(w, beamforming_weight(est, cfg))


# Reference copies of the measurement models that `codebook_model` and
# `AbpTracker._axis_model` replace, and of the ABP beams and ratio metric as
# they were before the weight tables; the new code must give the same bytes.

def _reference_response_grad(x, cfg):
    ax = steering_vector(x[0], cfg.n_x)
    ay = steering_vector(x[1], cfg.n_y)
    dax = -1j * np.arange(cfg.n_x) * ax
    day = -1j * np.arange(cfg.n_y) * ay
    du = np.outer(dax, ay.conj()).ravel()
    dv = np.outer(ax, (day.conj())).ravel()
    return du, dv


def _stack(z):
    return np.concatenate([z.real, z.imag])


def _reference_codebook_predicted(x_pred, cfg, gain):
    h_vec = channel_matrix(1.0, x_pred, cfg).ravel()
    return _stack(gain * (_weights(build_codebook(cfg)).conj().T @ h_vec))


def _reference_codebook_jacobian(x_pred, cfg, gain=1.0 + 0.0j):
    du, dv = _reference_response_grad(x_pred, cfg)
    weights = _weights(build_codebook(cfg))
    col_u = gain * (weights.conj().T @ du)
    col_v = gain * (weights.conj().T @ dv)
    return np.column_stack([_stack(col_u), _stack(col_v)])


def _delta(tracker):
    return ABP_SQUINT_FACTOR / tracker.cfg.n_x


def _reference_center(tracker, x_pred):
    axis = tracker.codebook.axis_angles
    return np.array([float(axis[np.argmin(np.abs(axis - a))]) for a in x_pred])


def _reference_pair_powers(u, center, delta, n):
    def power(c):
        w = steering_vector(c, n) / np.sqrt(n)
        return abs(np.vdot(w, steering_vector(u, n))) ** 2

    return power(center + delta), power(center - delta)


def _reference_ratio_metric(y_vec, center, delta, cfg):
    zetas = []
    for axis in range(2):
        powers = []
        for sign in (1.0, -1.0):
            est = np.array(center, dtype=float)
            est[axis] += sign * delta
            w = beamforming_weight(est, cfg)
            powers.append(abs(np.vdot(w, y_vec)) ** 2)
        zetas.append(baselines._pair_ratio(*powers))
    return np.array(zetas)


def _reference_abp_predicted(tracker, x, center):
    return np.array([
        baselines._pair_ratio(*_reference_pair_powers(x[i], center[i], _delta(tracker), n))
        for i, n in enumerate((tracker.cfg.n_x, tracker.cfg.n_y))
    ])


def _reference_abp_jacobian(tracker, x_pred, center):
    h = tracker._FD_STEP
    g = np.zeros((2, 2))
    for i in range(2):
        xp = x_pred.copy()
        xm = x_pred.copy()
        xp[i] += h
        xm[i] -= h
        g[:, i] = (_reference_abp_predicted(tracker, xp, center)
                   - _reference_abp_predicted(tracker, xm, center)) / (2 * h)
    return g


def _reference_abp_q_n(tracker, noise, x_pred, center):
    n_x, n_y = tracker.cfg.n_x, tracker.cfg.n_y
    sigma2 = noise_variance(noise, 1.0, n_x * n_y)
    variances = []
    for axis_val, c, n_axis, n_other in (
        (x_pred[0], center[0], n_x, n_y),
        (x_pred[1], center[1], n_y, n_x),
    ):
        p_plus, p_minus = _reference_pair_powers(axis_val, c, _delta(tracker), n_axis)
        p_plus *= n_other
        p_minus *= n_other
        total = p_plus + p_minus
        var_p = 2.0 * sigma2 * p_plus + sigma2**2
        var_m = 2.0 * sigma2 * p_minus + sigma2**2
        dzp = 2.0 * p_minus / total**2
        dzm = 2.0 * p_plus / total**2
        variances.append(max(dzp**2 * var_p + dzm**2 * var_m, baselines._Q_N_FLOOR))
    return np.diag(variances)


def _reference_abp_step(tracker, noise, y):
    """The ABP frame step as it was before the per-axis model; returns the new state."""
    cfg = tracker.cfg
    pred = predict(tracker.state, cfg.f, cfg.q_p)
    center = _reference_center(tracker, pred.x)
    zeta = _reference_ratio_metric(y.ravel(), center, _delta(tracker), cfg)
    z_hat = _reference_abp_predicted(tracker, pred.x, center)
    g = _reference_abp_jacobian(tracker, pred.x, center)
    if cfg.abp_q_n == "fixed":
        q_n = cfg.sigma_n_sq * np.eye(2)
    else:
        q_n = _reference_abp_q_n(tracker, noise, pred.x, center)
    state, innovation, _ = update(pred, zeta, g, q_n, z_hat)
    state, innovation = settle(pred, state, innovation)
    return state, step_result(innovation)


GAINS = [1.0 + 0.0j, 0.995, 0.3 - 0.8j, -2.5 + 1e-3j]


class TestModelOracles:
    @pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
    def test_codebook_model_equals_reference(self, shape):
        cfg = _cfg(*shape)
        cb = build_codebook(cfg)
        rng = np.random.default_rng(11)
        for i in range(500):
            x = rng.uniform(-np.pi, np.pi, 2)
            gain = GAINS[i % len(GAINS)]
            z_hat, g = codebook_model(x, cfg, cb, gain)
            assert z_hat.tobytes() == _reference_codebook_predicted(x, cfg, gain).tobytes()
            assert g.tobytes() == _reference_codebook_jacobian(x, cfg, gain).tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
    @pytest.mark.parametrize("snr_db", [-5.0, 10.0, 40.0])
    def test_abp_axis_model_equals_reference(self, shape, snr_db):
        tracker = _abp_tracker(initial_state(np.zeros(2), 0.01), shape, snr_db=snr_db)
        noise = ScenarioConfig(snr_db=snr_db)
        cb, dims = tracker.codebook, shape
        rng = np.random.default_rng(12)
        k = len(cb.axis_angles)
        spacing = 2 * np.pi / k
        for _ in range(500):
            index = rng.choice(k, 2)
            center = cb.axis_angles[index]
            # mostly inside the center beam, sometimes well outside it
            x = center + rng.uniform(-1.5, 1.5, 2) * spacing
            beams = [w[i] for w, i in zip(tracker.weights, index)]
            axes = [tracker._axis_model(*a) for a in zip(x, beams, dims[::-1])]
            z_hat, slopes, variances = (np.array(v) for v in zip(*axes))
            ref_z = _reference_abp_predicted(tracker, x, center)
            assert z_hat.tobytes() == ref_z.tobytes()
            assert np.diag(slopes).tobytes() == _reference_abp_jacobian(tracker, x, center).tobytes()
            ref_q = _reference_abp_q_n(tracker, noise, x, center)
            assert np.diag(variances).tobytes() == ref_q.tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
    @pytest.mark.parametrize("mode", ["delta", "fixed"])
    def test_abp_step_equals_reference(self, shape, mode):
        noise = ScenarioConfig(snr_db=5.0)
        rng = np.random.default_rng(13)
        for gain in GAINS:
            truth = rng.uniform(-0.5, 0.5, 2)
            start = initial_state(truth + rng.normal(0, 0.05, 2), 0.05)
            tracker = _abp_tracker(start, shape, snr_db=5.0, abp_q_n=mode)
            reference = _abp_tracker(start, shape, snr_db=5.0, abp_q_n=mode)
            h = rank1_snapshot(truth[0], truth[1], tracker.cfg, gain)
            var = noise_variance(noise, float(np.mean(np.abs(h) ** 2)), h.size)
            for _ in range(25):
                y = h + complex_noise(h.shape, var, rng)
                out = tracker.step(y)
                reference.state, ref_out = _reference_abp_step(reference, noise, y)
                assert tracker.state.x.tobytes() == reference.state.x.tobytes()
                assert tracker.state.p.tobytes() == reference.state.p.tobytes()
                assert repr(out) == repr(ref_out)


def test_abp_noise_square_overflows_at_construction():
    # the delta-method Q_n squares the element noise variance once, in noise_terms, which
    # the tracker's __init__ and the config check call
    scenario = SimpleNamespace(snr_db=-1600.0, snr_reference="array", n=64)
    with pytest.raises(OverflowError):
        AbpTracker.noise_terms(scenario)
    with pytest.raises(ConfigError, match="float range"):
        ScenarioConfig(scheme="abp", snr_db=-1600.0)


def test_abp_failure_at_difference_points_predicts_only(monkeypatch):
    # a pattern-power failure at x +/- h gives a predict-only frame
    start = initial_state(np.array([0.1, 0.1]), 0.01)
    tracker = _abp_tracker(start)
    pred = predict(start, tracker.cfg.f, tracker.cfg.q_p)
    curve = baselines.abp_ratio_curve

    def failing_off_prediction(u, *args):
        if u not in pred.x:
            return np.full(np.shape(u), np.nan)
        return curve(u, *args)

    monkeypatch.setattr(baselines, "abp_ratio_curve", failing_off_prediction)
    out = tracker.step(rank1_snapshot(0.1, 0.1, tracker.cfg))
    assert out["meas_valid"] is False
    assert tracker.state.x.tobytes() == pred.x.tobytes()
