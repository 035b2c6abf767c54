"""EKF recursion and the innovation-based noise estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamtrack.ekf import (
    InnovationNoiseEstimator,
    TrackerState,
    initial_state,
    jacobian,
    measurement_fn,
    predict,
    step_result,
    update,
)
from beamtrack.geometry import rotation_matrix


def _random_psd(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2))
    return a @ a.T + 1e-6 * np.eye(2)


class TestPredict:
    def test_identity(self):
        p = np.diag([0.1, 0.2])
        s = predict(TrackerState(np.array([1.0, 0.0]), p), rotation_matrix(0.0), np.zeros((2, 2)))
        assert np.allclose(s.x, [1.0, 0.0], atol=1e-15)
        assert np.allclose(s.p, p, atol=1e-15)

    def test_quarter_rotation_swaps_axes(self):
        s = predict(
            TrackerState(np.array([0.0, 0.0]), np.diag([1.0, 4.0])),
            rotation_matrix(np.pi / 2),
            np.zeros((2, 2)),
        )
        assert np.allclose(s.p, np.diag([4.0, 1.0]), atol=1e-12)

    @given(psi=st.floats(-np.pi, np.pi), seed=st.integers(0, 1000))
    @settings(max_examples=50)
    def test_trace_invariance(self, psi, seed):
        rng = np.random.default_rng(seed)
        p = _random_psd(rng)
        q_p = np.diag(rng.uniform(0, 0.1, 2))
        out = predict(TrackerState(np.zeros(2), p), rotation_matrix(psi), q_p)
        assert np.trace(out.p) == pytest.approx(np.trace(p) + np.trace(q_p), abs=1e-10)


class TestJacobian:
    def test_paper_approx_constant(self):
        for x in ([0.0, 0.0], [1.0, -2.0], [3.0, 3.0]):
            assert np.array_equal(jacobian(np.array(x), "paper-approx"), 0.5 * np.eye(2))

    def test_exact_at_origin(self):
        assert np.allclose(jacobian(np.zeros(2), "exact"), 0.5 * np.eye(2), atol=1e-15)

    def test_exact_at_half_pi(self):
        g = jacobian(np.array([np.pi / 2, 0.0]), "exact")
        assert np.allclose(g, np.diag([1.0, 0.5]), atol=1e-12)

    def test_exact_singularity(self):
        # the frame gets no measurement update, as for any failed measurement
        g = jacobian(np.array([np.pi, 0.0]), "exact")
        assert np.isnan(np.diag(g)).all() and (g[[0, 1], [1, 0]] == 0.0).all()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-2.5, 2.5, 2)
            g = jacobian(x, "exact")
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (measurement_fn(xp) - measurement_fn(xm)) / (2 * h)
                assert abs(g[i, i] - fd[i]) / abs(fd[i]) < 1e-6


class TestUpdate:
    def test_zero_innovation_keeps_state(self):
        pred = TrackerState(np.array([0.3, -0.4]), np.diag([0.01, 0.02]))
        r = measurement_fn(pred.x)
        new, innovation, _ = update(pred, r, jacobian(pred.x), np.eye(2) * 1e-6)
        assert np.allclose(innovation, 0.0, atol=1e-15)
        assert np.allclose(new.x, pred.x, atol=1e-15)

    def test_r_hat_defaults_to_monopulse_model(self):
        pred = TrackerState(np.array([0.3, -0.4]), np.diag([0.01, 0.02]))
        r = np.array([0.2, -0.1])
        g, q_n = jacobian(pred.x), np.eye(2) * 1e-4
        new_a, innov_a, k_a = update(pred, r, g, q_n)
        new_b, innov_b, k_b = update(pred, r, g, q_n, measurement_fn(pred.x))
        assert np.array_equal(new_a.x, new_b.x)
        assert np.array_equal(innov_a, innov_b)
        assert np.array_equal(k_a, k_b)

    def test_explicit_r_hat_taller_measurement(self):
        # a 4-dimensional measurement of the 2-dimensional state, as the
        # codebook tracker forms it: innovation r - r_hat, gain 2 x 4
        rng = np.random.default_rng(5)
        pred = TrackerState(np.array([0.1, 0.2]), np.diag([0.01, 0.02]))
        g = rng.normal(size=(4, 2))
        r, r_hat = rng.normal(size=4), rng.normal(size=4)
        new, innovation, k = update(pred, r, g, np.eye(4) * 1e-3, r_hat)
        assert np.array_equal(innovation, r - r_hat)
        assert k.shape == (2, 4)
        assert np.allclose(new.x, pred.x + k @ (r - r_hat), atol=1e-15)

    def test_singular_innovation_covariance_fails_the_measurement(self):
        # P = 0 and Q_n = 0 make S = 0: no gain exists, so the frame has no usable measurement
        pred = TrackerState(np.array([0.1, 0.2]), np.zeros((2, 2)))
        new, innovation, k = update(pred, np.array([0.05, 0.1]), jacobian(pred.x),
                                    np.zeros((2, 2)))
        # the entry keeps its prediction: a predict-only frame
        assert new.x.tobytes() == pred.x.tobytes() and new.p.tobytes() == pred.p.tobytes()
        assert np.isnan(innovation).all() and np.isnan(k).all()
        assert step_result(innovation)["meas_valid"] is False

    def test_scalarized_gain_formula(self):
        # isotropic case: K = 0.5 p / (0.25 p + sigma^2) * I
        for p in (1e-6, 1e-3, 0.1, 1.0):
            for sig2 in (1e-8, 1e-4, 0.01, 1.0):
                pred = TrackerState(np.zeros(2), p * np.eye(2))
                _, _, k = update(pred, np.zeros(2), 0.5 * np.eye(2), sig2 * np.eye(2))
                expected = 0.5 * p / (0.25 * p + sig2)
                assert np.allclose(k, expected * np.eye(2), atol=1e-12 * max(1, expected))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=100)
    def test_covariance_never_grows(self, seed):
        rng = np.random.default_rng(seed)
        pred = TrackerState(rng.uniform(-1, 1, 2), _random_psd(rng))
        q_n = np.diag(rng.uniform(1e-6, 1.0, 2))
        new, _, _ = update(pred, rng.normal(size=2), 0.5 * np.eye(2), q_n)
        eigs = np.linalg.eigvalsh(pred.p - new.p)
        assert eigs.min() >= -1e-12
        assert np.allclose(new.p, new.p.T, atol=1e-12)

    def test_covariance_health_over_sequences(self):
        rng = np.random.default_rng(31)
        state = initial_state(np.zeros(2), 0.1)
        f = rotation_matrix(0.05)
        q_p = np.diag([1e-4, 2e-4])
        for _ in range(500):
            pred = predict(state, f, q_p)
            state, _, _ = update(pred, rng.normal(0, 0.1, 2),
                                 jacobian(pred.x), np.eye(2) * 1e-4)
            assert np.linalg.norm(state.p - state.p.T) < 1e-12
            assert np.linalg.eigvalsh(state.p).min() > -1e-10

    def test_normalized_innovation_consistency(self):
        # correctly specified filter: E[innov^T S^-1 innov] = 2 for a 2-D
        # measurement; small angles keep the exact Jacobian nearly linear
        rng = np.random.default_rng(17)
        f = rotation_matrix(0.002)
        q_p = np.eye(2) * 1e-6
        sigma_n2 = 1e-5
        truth = np.array([0.02, -0.03])
        state = initial_state(truth.copy(), 1e-3)
        nis = []
        for _ in range(10_000):
            truth = f @ truth + rng.normal(0, 1e-3, 2)
            pred = predict(state, f, q_p)
            r = measurement_fn(truth) + rng.normal(0, np.sqrt(sigma_n2), 2)
            g = jacobian(pred.x, "exact")
            s = g @ pred.p @ g.T + sigma_n2 * np.eye(2)
            state, innovation, _ = update(pred, r, g, sigma_n2 * np.eye(2))
            nis.append(innovation @ np.linalg.solve(s, innovation))
        assert 1.5 <= np.mean(nis) <= 2.5

    def test_one_step_contraction_static(self):
        truth = np.array([0.8, -0.6])
        state = initial_state(truth + np.array([0.5, 0.9]), 1.0)
        f = np.eye(2)
        errs = [np.linalg.norm(state.x - truth)]
        for _ in range(25):
            pred = predict(state, f, np.zeros((2, 2)))
            r = measurement_fn(truth)
            state, _, _ = update(pred, r, jacobian(pred.x, "exact"), np.eye(2) * 1e-12)
            errs.append(np.linalg.norm(state.x - truth))
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05 * errs[0]


class TestNoiseEstimator:
    def test_prior_until_window_full(self):
        est = InnovationNoiseEstimator(window=10)
        prior = np.eye(2) * 7.0
        for _ in range(9):
            est.push(np.zeros(2), 0.5 * np.eye(2), np.eye(2))
        assert np.array_equal(est.estimate(prior), prior)

    def test_constant_innovations_floored(self):
        est = InnovationNoiseEstimator(window=5, floor=1e-9)
        for _ in range(5):
            est.push(np.array([0.3, 0.3]), 0.5 * np.eye(2), np.zeros((2, 2)))
        q = est.estimate(np.eye(2))
        assert np.allclose(q, np.eye(2) * 1e-9)

    def test_recovers_known_variance(self):
        rng = np.random.default_rng(23)
        sigma2 = 0.04
        gpg = np.diag([0.01, 0.02])
        estimates = []
        for _ in range(100):
            est = InnovationNoiseEstimator(window=200)
            for _ in range(200):
                innov = rng.normal(0, np.sqrt(sigma2 + np.diag(gpg)))
                est.push(innov, np.eye(2), gpg)
            estimates.append(np.diag(est.estimate(np.eye(2))))
        mean_est = np.mean(estimates, axis=0)
        assert np.all(np.abs(mean_est - sigma2) / sigma2 < 0.2)

    def test_window_keeps_latest(self):
        rng = np.random.default_rng(4)
        history = [(rng.normal(size=2), rng.uniform(0, 0.1, 2)) for _ in range(30)]
        prior = np.eye(2) * 0.5
        full, latest = InnovationNoiseEstimator(window=20), InnovationNoiseEstimator(window=20)
        for innov, gpg in history:
            full.push(innov, np.eye(2), np.diag(gpg))
        for innov, gpg in history[-20:]:
            latest.push(innov, np.eye(2), np.diag(gpg))
        assert np.array_equal(full.estimate(prior), latest.estimate(prior))
        assert not np.allclose(full.estimate(prior), prior)

    def test_batch_equals_each_entry_alone(self):
        # each entry's estimate is that of an estimator fed only the entry's own usable
        # pushes since its last reset
        rng = np.random.default_rng(8)
        prior = np.eye(2) * 0.3
        batch = InnovationNoiseEstimator(window=5, batch=(3,))
        alone = [InnovationNoiseEstimator(window=5) for _ in range(3)]
        for step in range(20):
            innov = rng.normal(size=(3, 2))
            innov[(step + np.arange(3)) % 4 == 0] = np.nan
            g_mat = np.diag(rng.uniform(0.4, 0.6, 2))
            a = rng.normal(size=(3, 2, 2))
            p_pred = a @ a.mT
            batch.push(innov, g_mat, p_pred)
            for i, one in enumerate(alone):
                if not np.isnan(innov[i]).any():
                    one.push(innov[i], g_mat, p_pred[i])
            if step == 9:
                batch.reset(np.array([False, True, False]))
                alone[1] = InnovationNoiseEstimator(window=5)
            # the prior itself while no entry's window is full
            est = np.broadcast_to(batch.estimate(prior), (3, 2, 2))
            for i, one in enumerate(alone):
                assert np.array_equal(est[i], one.estimate(prior)), (step, i)
        assert not np.array_equal(est, np.broadcast_to(prior, est.shape))


class TestStepResult:
    def test_measured_frame(self):
        out = step_result(np.array([3.0, 4.0]), 0.25)
        assert out == {"meas_valid": True, "innovation_norm": 5.0, "bound": 0.25}
        assert np.isnan(step_result(np.array([3.0, 4.0]))["bound"])

    def test_prediction_only_frame(self):
        # a NaN innovation row marks a frame without a usable measurement
        out = step_result(np.full(2, np.nan), 0.25)
        assert out.keys() == {"meas_valid", "innovation_norm", "bound"}
        assert out["meas_valid"] is False
        assert np.isnan(out["innovation_norm"])
        assert np.isnan(out["bound"])


def test_initial_state_covariance():
    s = initial_state(np.array([0.1, 0.2]), 0.005)
    assert np.allclose(s.p, np.eye(2) * 2.5e-5)
