"""Recursive MSE upper bound and its gap from the relaxed measurement covariance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamtrack.analysis import bound_step
from beamtrack.geometry import rotation_matrix
from beamtrack.harness import run_experiment
from beamtrack.presets import get_preset


def _random_psd(rng, scale=1.0):
    a = rng.normal(size=(2, 2))
    return scale * (a @ a.T)


class TestBoundStep:
    def test_zero_gain_reduces_to_traces(self):
        p = np.diag([0.3, 0.7])
        q_p = np.diag([0.1, 0.2])
        out = bound_step(p, np.zeros((2, 2)), 0.5 * np.eye(2),
                         rotation_matrix(0.4), q_p, np.eye(2))
        assert out == pytest.approx(np.trace(p) + np.trace(q_p), abs=1e-12)

    def test_full_correction_leaves_only_measurement_term(self):
        g = 0.5 * np.eye(2)
        k = np.linalg.inv(g)
        q_n_rel = np.diag([0.01, 0.04])
        out = bound_step(np.eye(2), k, g, rotation_matrix(1.0),
                         np.zeros((2, 2)), q_n_rel)
        expected = np.trace(k @ q_n_rel @ k.T)
        assert out == pytest.approx(expected, abs=1e-12)

    @given(
        p=st.floats(1e-6, 1.0),
        kk=st.floats(0.0, 2.0),
        q=st.floats(0.0, 0.1),
        s=st.floats(0.0, 0.1),
        psi=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=100)
    def test_scalarized_closed_form(self, p, kk, q, s, psi):
        # isotropic inputs: bound = 2[(1 - 0.5k)^2 (p + q) + k^2 s]
        out = bound_step(p * np.eye(2), kk * np.eye(2), 0.5 * np.eye(2),
                         rotation_matrix(psi), q * np.eye(2), s * np.eye(2))
        expected = 2 * ((1 - 0.5 * kk) ** 2 * (p + q) + kk**2 * s)
        assert out == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=100)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        out = bound_step(_random_psd(rng), rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), rotation_matrix(rng.uniform(-3, 3)),
                         _random_psd(rng, 0.1), _random_psd(rng, 0.01))
        assert out >= -1e-12

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=100)
    def test_monotone_in_relaxation(self, seed):
        rng = np.random.default_rng(seed)
        p = _random_psd(rng)
        k = rng.normal(size=(2, 2))
        g = 0.5 * np.eye(2)
        f = rotation_matrix(rng.uniform(-3, 3))
        q_p = _random_psd(rng, 0.1)
        q_small = _random_psd(rng, 0.01)
        q_big = q_small + _random_psd(rng, 0.01)
        assert bound_step(p, k, g, f, q_p, q_big) >= bound_step(p, k, g, f, q_p, q_small) - 1e-12


@pytest.mark.parametrize("preset", ["fig7", "fig9"])
def test_harness_bound_is_the_scalar_riccati_recursion(preset):
    # fixed Q_n = r I, G = 0.5 I and Q_p = q I keep P = p I isotropic, and the rotation F
    # leaves it so: the harness's per-frame bound, wired through P, K and G across frames,
    # is then a scalar recursion from p = sigma_init^2
    cfg = replace(get_preset(preset), q_n_mode="fixed", trials=2)
    assert cfg.jacobian_mode == "paper-approx" and cfg.sigma_u == cfg.sigma_v
    g, q, r, r_relaxed = 0.5, cfg.sigma_u**2, cfg.sigma_n_sq, cfg.sigma_nb_sq
    p, expected = cfg.sigma_init**2, []
    for _ in range(cfg.frames):
        p_pred = p + q
        k = g * p_pred / (g**2 * p_pred + r)
        b = 1 - k * g
        expected.append(2 * (b**2 * p + b**2 * q + k**2 * r_relaxed))
        p = b * p_pred
    assert run_experiment(cfg).per_frame_bound == pytest.approx(expected, rel=1e-13, abs=0)


def _gap(k, q_n_relaxed, q_n):
    """Bound-to-MSE gap Tr(K (Q_n' - Q_n) K^T), read off as the difference of
    two bounds that differ only in the measurement covariance."""
    args = (np.eye(2), k, 0.5 * np.eye(2), rotation_matrix(0.3), 0.01 * np.eye(2))
    return bound_step(*args, q_n_relaxed) - bound_step(*args, q_n)


class TestBoundGap:
    def test_zero_when_equal(self):
        q = np.diag([0.1, 0.2])
        assert _gap(np.eye(2), q, q) == 0.0

    def test_identity_gain_sums_diagonal(self):
        assert _gap(np.eye(2), np.diag([0.5, 0.7]), np.diag([0.2, 0.3])) == pytest.approx(0.7)

    def test_reference_noise_levels(self):
        # sigma_n^2 = 5e-6, relaxed 3e-5, K = 0.5 I: 2 * 0.25 * 2.5e-5
        gap = _gap(0.5 * np.eye(2), np.eye(2) * 3e-5, np.eye(2) * 5e-6)
        assert gap == pytest.approx(1.25e-5, abs=1e-12)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=100)
    def test_non_negative_for_valid_relaxation(self, seed):
        rng = np.random.default_rng(seed)
        q_n = _random_psd(rng, 0.01)
        q_rel = q_n + _random_psd(rng, 0.01)
        assert _gap(rng.normal(size=(2, 2)), q_rel, q_n) >= -1e-12
