"""Complex-comparison monopulse extraction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamtrack.channel import noise_variance, synthesize_rx
from beamtrack.harness import ScenarioConfig
from beamtrack.monopulse import extract_measurement, normalize_rx

from conftest import rank1_snapshot


class TestNormalizeRx:
    def test_reference_element_becomes_one(self):
        y = rank1_snapshot(0.4, -0.7, ScenarioConfig(n_x=4, n_y=4), gain=2.0 - 1.0j)
        assert normalize_rx(y)[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_idempotent(self):
        y = rank1_snapshot(0.4, -0.7, ScenarioConfig(n_x=4, n_y=4), gain=2.0 - 1.0j)
        once = normalize_rx(y)
        assert np.allclose(normalize_rx(once), once, atol=1e-15)

    def test_common_factor_cancels_in_ratios(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        y = rank1_snapshot(0.4, -0.7, cfg)
        r1 = extract_measurement(y, cfg).r
        r2 = extract_measurement((3.0 - 2.0j) * y, cfg).r
        assert np.allclose(r1, r2, rtol=0.0, atol=1e-14)

    def test_peak_is_the_reference_when_y00_is_below_the_floor(self):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        y = rank1_snapshot(0.4, -0.7, cfg) * np.linspace(1.0, 2.0, 16).reshape(4, 4)
        y[0, 0] = 1e-20
        assert normalize_rx(y)[3, 3] == pytest.approx(1.0 + 0.0j, abs=1e-15)
        r1 = extract_measurement(y, cfg).r
        r2 = extract_measurement((3.0 - 2.0j) * y, cfg).r
        assert np.allclose(r1, r2, rtol=0.0, atol=1e-14)
        # in a batch, only that snapshot takes the peak: each normalizes and measures as alone
        batch = np.array([rank1_snapshot(0.3, -0.2, cfg), y, rank1_snapshot(-0.1, 0.5, cfg)])
        normalized, measured = normalize_rx(batch), extract_measurement(batch, cfg).r
        for i, alone in enumerate(batch):
            assert normalized[i].tobytes() == normalize_rx(alone).tobytes()
            assert measured[i].tobytes() == extract_measurement(alone, cfg).r.tobytes()

    def test_all_zero_snapshot_is_its_own_nan_row(self, cfg8):
        # it has no reference, keeps its zeros and drops every pair on both axes; the
        # snapshots beside it measure as they do alone
        zeros = np.zeros((8, 8), dtype=complex)
        assert np.array_equal(normalize_rx(zeros), zeros)
        good = rank1_snapshot(0.3, -0.2, cfg8)
        m = extract_measurement(np.array([good, zeros, good]), cfg8)
        assert np.isnan(m.r[1]).all()
        assert m.excluded_pairs == 2 * 8 * 8 - 8 - 8
        alone = extract_measurement(good, cfg8).r.tobytes()
        assert m.r[0].tobytes() == alone and m.r[2].tobytes() == alone


class TestMonopulseAxes:
    def test_x_broadside_zero(self, cfg4):
        rx = extract_measurement(rank1_snapshot(0.0, 0.3, cfg4), cfg4).r[0]
        assert rx == pytest.approx(0.0, abs=1e-14)

    def test_x_quarter_pi(self, cfg4):
        rx = extract_measurement(rank1_snapshot(np.pi / 2, 0.0, cfg4), cfg4).r[0]
        assert rx == pytest.approx(1.0, abs=1e-12)

    def test_x_reference_angle(self, cfg4):
        # Im{R_x} = tan(0.5455 / 2), oracle evaluated independently
        rx = extract_measurement(rank1_snapshot(0.5455, 0.0, cfg4), cfg4).r[0]
        assert rx == pytest.approx(np.tan(0.27275), abs=1e-12)
        assert rx == pytest.approx(0.27975, abs=5e-5)

    def test_y_broadside_zero(self, cfg4):
        ry = extract_measurement(rank1_snapshot(0.3, 0.0, cfg4), cfg4).r[1]
        assert ry == pytest.approx(0.0, abs=1e-14)

    def test_y_quarter_pi(self, cfg4):
        ry = extract_measurement(rank1_snapshot(0.0, np.pi / 2, cfg4), cfg4).r[1]
        assert ry == pytest.approx(1.0, abs=1e-12)

    def test_y_small_angle(self, cfg4):
        ry = extract_measurement(rank1_snapshot(0.39, 0.12, cfg4), cfg4).r[1]
        assert ry == pytest.approx(np.tan(0.06), abs=1e-12)
        assert ry == pytest.approx(0.060072, abs=5e-6)


class TestExtractMeasurement:
    def test_broadside_zero(self, cfg8):
        m = extract_measurement(rank1_snapshot(0.0, 0.0, cfg8), cfg8)
        assert np.allclose(m.r, 0.0, atol=1e-14)

    def test_closed_form_random_angles(self, cfg8):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.uniform(-2, 2, 2)
            m = extract_measurement(rank1_snapshot(u, v, cfg8), cfg8)
            assert np.allclose(m.r, [np.tan(u / 2), np.tan(v / 2)], atol=1e-12)

    def test_scale_invariance_exact(self, cfg8):
        y = rank1_snapshot(0.7, -0.9, cfg8)
        m1 = extract_measurement(y, cfg8)
        m2 = extract_measurement((0.001 - 7.0j) * y, cfg8)
        assert np.array_equal(m1.r, m2.r)

    def test_dimension_always_two(self):
        for n in (2, 4, 16):
            cfg = ScenarioConfig(n_x=n, n_y=n)
            m = extract_measurement(rank1_snapshot(0.5, -0.5, cfg), cfg)
            assert m.r.shape == (2,)

    def test_shape_mismatch_raises(self, cfg8):
        with pytest.raises(ValueError):
            extract_measurement(np.ones((4, 4), dtype=complex), cfg8)

    def test_all_pairs_degenerate_measures_nan(self):
        cfg = ScenarioConfig(n_x=2, n_y=2)
        # u = pi makes every x-axis pair sum to exactly zero
        m = extract_measurement(rank1_snapshot(np.pi, 0.0, cfg), cfg)
        assert np.isnan(m.r[0]) and m.r[1] == pytest.approx(0.0, abs=1e-12)
        assert m.excluded_pairs == 2

    @given(u=st.floats(-2, 2), v=st.floats(-2, 2))
    @settings(max_examples=200)
    def test_exactness_property(self, u, v):
        cfg = ScenarioConfig(n_x=4, n_y=4)
        m = extract_measurement(rank1_snapshot(u, v, cfg), cfg)
        assert abs(m.r[0] - np.tan(u / 2)) < 1e-12
        assert abs(m.r[1] - np.tan(v / 2)) < 1e-12


class TestNoiseBehaviour:
    @staticmethod
    def _variance(cfg: ScenarioConfig, snr_db: float, trials: int, seed: int) -> float:
        noisy = replace(cfg, snr_db=snr_db, snr_reference="element")
        h = rank1_snapshot(0.3, -0.2, cfg)
        var = noise_variance(noisy, np.mean(np.abs(h) ** 2))
        rng = np.random.default_rng(seed)
        vals = np.empty((trials, 2))
        for i in range(trials):
            y = synthesize_rx(h, var, rng.standard_normal(2 * h.size))
            vals[i] = extract_measurement(y, cfg).r
        return float(vals.var(axis=0).sum())

    def test_variance_non_increasing_in_snr(self, cfg4):
        variances = [self._variance(cfg4, snr, 10_000, 1) for snr in (10.0, 20.0, 30.0)]
        assert variances[0] >= variances[1] >= variances[2]

    def test_pair_averaging_reduces_variance(self):
        v2 = self._variance(ScenarioConfig(n_x=2, n_y=2), 20.0, 4000, 2)
        v8 = self._variance(ScenarioConfig(n_x=8, n_y=8), 20.0, 4000, 2)
        assert v8 < v2
