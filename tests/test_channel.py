"""Channel synthesis, received snapshots, and beamforming."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamtrack import rng as rngmod
from beamtrack.channel import (
    beamforming_weight,
    channel_matrix,
    combine,
    complex_noise,
    evolve_gain,
    noise_variance,
    steering_vector,
    synthesize_rx,
)
from beamtrack.errors import ConfigError
from beamtrack.harness import ScenarioConfig

from conftest import rank1_snapshot

NOISELESS4 = ScenarioConfig(n_x=4, n_y=4, snr_db=np.inf)


def _normals(seed, shape):
    """Standard normals, as the noise steps take them."""
    return np.random.default_rng(seed).standard_normal(shape)


class TestSteeringVector:
    def test_broadside(self):
        assert np.array_equal(steering_vector(0.0, 3), np.ones(3))

    def test_endfire_two_elements(self):
        a = steering_vector(np.pi, 2)
        assert np.allclose(a, [1.0, -1.0], atol=1e-15)

    def test_quarter_turn_per_element(self):
        a = steering_vector(np.pi / 2, 4)
        assert np.allclose(a, [1.0, -1.0j, -1.0, 1.0j], atol=1e-15)

    def test_first_element_exactly_one(self):
        assert steering_vector(1.2345, 6)[0] == 1.0 + 0.0j


class TestChannelMatrix:
    def test_broadside_all_ones(self):
        h = rank1_snapshot(0.0, 0.0, ScenarioConfig(n_x=2, n_y=2))
        assert np.allclose(h, np.ones((2, 2)), atol=1e-15)

    def test_corner_element_is_scalar_gain(self):
        h = rank1_snapshot(0.7, -1.1, ScenarioConfig(n_x=4, n_y=4), gain=0.3 - 0.4j)
        assert h[0, 0] == pytest.approx(0.3 - 0.4j, abs=1e-15)

    def test_outer_product_by_hand(self):
        # u = pi/2, v = 0: rows [1, 1] and [-j, -j]
        h = rank1_snapshot(np.pi / 2, 0.0, ScenarioConfig(n_x=2, n_y=2))
        assert np.allclose(h, [[1, 1], [-1j, -1j]], atol=1e-15)

    @given(u=st.floats(-np.pi, np.pi), v=st.floats(-np.pi, np.pi))
    @settings(max_examples=50)
    def test_rank_one(self, u, v):
        h = rank1_snapshot(u, v, ScenarioConfig(n_x=4, n_y=6))
        sv = np.linalg.svd(h, compute_uv=False)
        assert sv[1] < 1e-10 * sv[0]

    def test_constant_magnitude(self):
        h = rank1_snapshot(0.9, -0.3, ScenarioConfig(n_x=3, n_y=5), gain=2.0j)
        assert np.allclose(np.abs(h), 2.0, atol=1e-12)


class TestEvolveGain:
    def test_frozen_channel(self):
        a = evolve_gain(1.0 + 0.0j, 1.0, _normals(0, 2), innovation_var=0.0)
        assert a == 1.0 + 0.0j

    def test_zero_correlation_is_pure_innovation(self):
        a = evolve_gain(123.0 + 0.0j, 0.0, _normals(1, 2), innovation_var=1.0)
        rng2 = np.random.default_rng(1)
        eps = complex(rng2.normal(0, np.sqrt(0.5)) + 1j * rng2.normal(0, np.sqrt(0.5)))
        assert a == pytest.approx(eps)

    def test_stationary_variance(self):
        # Gauss-Markov stationary variance var_eps / (1 - rho^2); oracle is
        # the closed form, checked against a long sample path.
        rho, var_eps = 0.9, 0.05
        n = 100_000
        z = _normals(42, (n, 2))
        alpha = 0.0 + 0.0j
        samples = np.empty(n, dtype=complex)
        for i in range(n):
            alpha = evolve_gain(alpha, rho, z[i], innovation_var=var_eps)
            samples[i] = alpha
        expected = var_eps / (1 - rho**2)
        measured = np.mean(np.abs(samples[1000:]) ** 2)
        assert measured == pytest.approx(expected, rel=0.03)

    def test_literal_default_variance(self):
        # the config's default innovation variance is the literal 1 - rho^2/2, which stays
        # positive at rho = 1 (unusual; kept configurable for that reason)
        for rho in (0.995, 1.0, -1.0):
            cfg = ScenarioConfig(rho_gain=rho, gain_innovation_var=None)
            assert cfg.gain_var == 1 - rho**2 / 2
            assert ScenarioConfig(rho_gain=rho, gain_innovation_var=0.25).gain_var == 0.25
        rho = 0.995
        draws = evolve_gain(np.zeros(50_000, complex), rho, _normals(3, (50_000, 2)),
                            1 - rho**2 / 2)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1 - rho**2 / 2, rel=0.05)

    @pytest.mark.parametrize("innovation_var", [None, 0.0, 1e-4])
    def test_batch_equals_scalar_steps_on_each_trials_stream(self, innovation_var):
        # None: the config's literal default, the variance a run then passes
        trials = [0, 2, 5]
        alpha = np.array([1.0 + 0.0j, 0.3 - 0.8j, -2.0 + 0.5j])
        for rho in (0.995, -1.0):
            var = (ScenarioConfig(rho_gain=rho, gain_innovation_var=None).gain_var
                   if innovation_var is None else innovation_var)
            z = rngmod.trial_normals(3, rngmod.trial_keys(3, trials), [4], "gain", 2)[0]
            batch = evolve_gain(alpha, rho, z, var)
            for a, t, b in zip(alpha, trials, batch):
                draws = rngmod.stream(3, t, 4, "gain").standard_normal(2)
                assert np.array_equal(b, evolve_gain(complex(a), rho, draws, var))


class TestSynthesizeRx:
    def test_noiseless_equals_signal(self):
        h = rank1_snapshot(0.4, -0.2, NOISELESS4)
        y = synthesize_rx(h, np.zeros(()), _normals(0, 2 * NOISELESS4.n))
        assert np.array_equal(y, h)

    def test_corner_recovers_channel(self):
        h = rank1_snapshot(0.4, -0.2, NOISELESS4, gain=1.0j)
        y = synthesize_rx(h, np.zeros(()), _normals(0, 2 * NOISELESS4.n))
        assert y[0, 0] == pytest.approx(h[0, 0])

    def test_empirical_element_snr(self):
        cfg = ScenarioConfig(n_x=2, n_y=2, snr_db=10.0, snr_reference="element")
        h = rank1_snapshot(0.3, 0.1, cfg)
        sig_power = np.mean(np.abs(h) ** 2)
        var = noise_variance(cfg, sig_power)
        y = synthesize_rx(np.broadcast_to(h, (20_000, *h.shape)), np.full(20_000, var),
                          _normals(7, (20_000, 2 * cfg.n)))
        noise_power = np.mean(np.abs(y - h) ** 2)
        measured_db = 10 * np.log10(sig_power / noise_power)
        assert measured_db == pytest.approx(10.0, abs=0.1)

    def test_array_reference_scales_by_n(self):
        cfg_e = ScenarioConfig(snr_db=10.0, snr_reference="element")
        cfg_a = ScenarioConfig(snr_db=10.0, snr_reference="array")
        assert noise_variance(cfg_a, 1.0) == pytest.approx(noise_variance(cfg_e, 1.0) / 64)


class TestBeamformingWeight:
    def test_broadside_uniform(self):
        w = beamforming_weight(np.array([0.0, 0.0]), ScenarioConfig(n_x=2, n_y=2))
        assert np.allclose(w, 0.5 * np.ones(4), atol=1e-15)

    @given(u=st.floats(-np.pi, np.pi), v=st.floats(-np.pi, np.pi))
    @settings(max_examples=50)
    def test_unit_norm(self, u, v):
        w = beamforming_weight(np.array([u, v]), ScenarioConfig(n_x=3, n_y=5))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_aligned_gain_sqrt_n(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        x = np.array([0.7, -0.4])
        w = beamforming_weight(x, cfg)
        h_vec = channel_matrix(1.0, x, cfg).ravel()
        assert np.vdot(w, h_vec) == pytest.approx(np.sqrt(cfg.n), abs=1e-12)

    @given(u=st.floats(-3, 3), v=st.floats(-3, 3),
           uh=st.floats(-3, 3), vh=st.floats(-3, 3))
    @settings(max_examples=50)
    def test_gain_bound(self, u, v, uh, vh):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        w = beamforming_weight(np.array([uh, vh]), cfg)
        h_vec = rank1_snapshot(u, v, cfg, gain=0.8j).ravel()
        assert abs(np.vdot(w, h_vec)) <= np.sqrt(cfg.n) * 0.8 + 1e-9


class TestBeamformedSignal:
    """The data-phase combiner output, combine(w, h_vec, complex_noise(...))."""

    def test_coherent_combining(self):
        x = np.array([0.3, 0.9])
        w = beamforming_weight(x, NOISELESS4)
        h_vec = channel_matrix(1.0, x, NOISELESS4).ravel()
        r = combine(w, h_vec, complex_noise(h_vec.shape, 0.0, _normals(0, 2 * NOISELESS4.n)))
        assert r == pytest.approx(np.sqrt(NOISELESS4.n), abs=1e-10)

    def test_orthogonal_weight_nulls(self):
        # orthogonal DFT directions: grid spacing 2*pi/n
        w = beamforming_weight(np.array([2 * np.pi / 4, 0.0]), NOISELESS4)
        h_vec = rank1_snapshot(0.0, 0.0, NOISELESS4).ravel()
        r = combine(w, h_vec, complex_noise(h_vec.shape, 0.0, _normals(0, 2 * NOISELESS4.n)))
        assert abs(r) < 1e-10

    def test_combined_noise_variance(self):
        # unit-norm combiner keeps per-element noise variance
        cfg = ScenarioConfig(n_x=4, n_y=4, snr_db=0.0, snr_reference="element")
        w = beamforming_weight(np.array([0.1, 0.2]), cfg)
        h_vec = rank1_snapshot(0.5, -0.5, cfg).ravel()
        var = noise_variance(cfg, np.mean(np.abs(h_vec) ** 2))
        shape = (30_000, cfg.n)
        noise = complex_noise(shape, var, _normals(11, (30_000, 2 * cfg.n)))
        draws = combine(w, np.broadcast_to(h_vec, shape), noise) - np.vdot(w, h_vec)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(var, rel=0.03)


def test_complex_noise_zero_variance():
    n = complex_noise((3, 3), 0.0, _normals(0, 18))
    assert np.array_equal(n, np.zeros((3, 3)))


def test_complex_noise_reads_real_then_imaginary_halves():
    # per entry of the leading axis: the real parts, then the imaginary parts, in shape's order
    z = _normals(5, (2, 12))
    n = complex_noise((2, 2, 3), np.array([0.5, 2.0])[:, None, None], z)
    s = np.sqrt(np.array([0.25, 1.0]))[:, None, None]
    assert np.array_equal(n.real, s * z[:, :6].reshape(2, 2, 3))
    assert np.array_equal(n.imag, s * z[:, 6:].reshape(2, 2, 3))


def test_pilot_config_rejects_bad_reference():
    with pytest.raises(ConfigError, match="snr_reference"):
        ScenarioConfig(snr_db=10.0, snr_reference="bogus")


def test_array_config_minimum_size():
    for n_x, n_y in ((1, 4), (4, 1), (0, 2)):
        with pytest.raises(ConfigError, match="at least 2 elements"):
            ScenarioConfig(n_x=n_x, n_y=n_y)
