"""Complex-comparison monopulse extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamtrack.channel import ArrayConfig, PilotConfig, synthesize_rx
from beamtrack.errors import DegenerateInputError, MeasurementFailure
from beamtrack.monopulse import extract_measurement, normalize_rx

from conftest import rank1_snapshot


class TestNormalizeRx:
    def test_reference_element_becomes_one(self):
        y = rank1_snapshot(0.4, -0.7, ArrayConfig(4, 4), gain=2.0 - 1.0j)
        assert normalize_rx(y)[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_idempotent(self):
        y = rank1_snapshot(0.4, -0.7, ArrayConfig(4, 4), gain=2.0 - 1.0j)
        once = normalize_rx(y)
        assert np.allclose(normalize_rx(once), once, atol=1e-15)

    def test_common_factor_cancels_in_ratios(self):
        arr = ArrayConfig(4, 4)
        y = rank1_snapshot(0.4, -0.7, arr)
        r1 = extract_measurement(y, arr).raw_rx
        r2 = extract_measurement((3.0 - 2.0j) * y, arr).raw_rx
        assert r1 == pytest.approx(r2, abs=1e-14)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateInputError):
            normalize_rx(np.zeros((4, 4), dtype=complex))


class TestMonopulseAxes:
    def test_x_broadside_zero(self, arr4):
        rx = extract_measurement(rank1_snapshot(0.0, 0.3, arr4), arr4).raw_rx
        assert rx.imag == pytest.approx(0.0, abs=1e-14)

    def test_x_quarter_pi(self, arr4):
        rx = extract_measurement(rank1_snapshot(np.pi / 2, 0.0, arr4), arr4).raw_rx
        assert rx.imag == pytest.approx(1.0, abs=1e-12)

    def test_x_reference_angle(self, arr4):
        # Im{R_x} = tan(0.5455 / 2), oracle evaluated independently
        rx = extract_measurement(rank1_snapshot(0.5455, 0.0, arr4), arr4).raw_rx
        assert rx.imag == pytest.approx(np.tan(0.27275), abs=1e-12)
        assert rx.imag == pytest.approx(0.27975, abs=5e-5)

    def test_y_broadside_zero(self, arr4):
        ry = extract_measurement(rank1_snapshot(0.3, 0.0, arr4), arr4).raw_ry
        assert ry.imag == pytest.approx(0.0, abs=1e-14)

    def test_y_quarter_pi(self, arr4):
        ry = extract_measurement(rank1_snapshot(0.0, np.pi / 2, arr4), arr4).raw_ry
        assert ry.imag == pytest.approx(1.0, abs=1e-12)

    def test_y_small_angle(self, arr4):
        ry = extract_measurement(rank1_snapshot(0.39, 0.12, arr4), arr4).raw_ry
        assert ry.imag == pytest.approx(np.tan(0.06), abs=1e-12)
        assert ry.imag == pytest.approx(0.060072, abs=5e-6)


class TestExtractMeasurement:
    def test_broadside_zero(self, arr8):
        m = extract_measurement(rank1_snapshot(0.0, 0.0, arr8), arr8)
        assert np.allclose(m.r, 0.0, atol=1e-14)

    def test_closed_form_random_angles(self, arr8):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.uniform(-2, 2, 2)
            m = extract_measurement(rank1_snapshot(u, v, arr8), arr8)
            assert np.allclose(m.r, [np.tan(u / 2), np.tan(v / 2)], atol=1e-12)

    def test_scale_invariance_exact(self, arr8):
        y = rank1_snapshot(0.7, -0.9, arr8)
        m1 = extract_measurement(y, arr8)
        m2 = extract_measurement((0.001 - 7.0j) * y, arr8)
        assert np.array_equal(m1.r, m2.r)

    def test_dimension_always_two(self):
        for n in (2, 4, 16):
            arr = ArrayConfig(n, n)
            m = extract_measurement(rank1_snapshot(0.5, -0.5, arr), arr)
            assert m.r.shape == (2,)

    def test_shape_mismatch_raises(self, arr8):
        with pytest.raises(ValueError):
            extract_measurement(np.ones((4, 4), dtype=complex), arr8)

    def test_all_pairs_degenerate_raises(self):
        arr = ArrayConfig(2, 2)
        # u = pi makes every x-axis pair sum to exactly zero
        with pytest.raises(MeasurementFailure):
            extract_measurement(rank1_snapshot(np.pi, 0.0, arr), arr)

    @given(u=st.floats(-2, 2), v=st.floats(-2, 2))
    @settings(max_examples=200)
    def test_exactness_property(self, u, v):
        arr = ArrayConfig(4, 4)
        m = extract_measurement(rank1_snapshot(u, v, arr), arr)
        assert abs(m.r[0] - np.tan(u / 2)) < 1e-12
        assert abs(m.r[1] - np.tan(v / 2)) < 1e-12


class TestNoiseBehaviour:
    @staticmethod
    def _variance(arr: ArrayConfig, snr_db: float, trials: int, seed: int) -> float:
        pilot = PilotConfig(snr_db=snr_db, snr_reference="element")
        h = rank1_snapshot(0.3, -0.2, arr)
        rng = np.random.default_rng(seed)
        vals = np.empty((trials, 2))
        for i in range(trials):
            y = synthesize_rx(h, pilot, rng)
            vals[i] = extract_measurement(y, arr).r
        return float(vals.var(axis=0).sum())

    def test_variance_non_increasing_in_snr(self, arr4):
        variances = [self._variance(arr4, snr, 10_000, 1) for snr in (10.0, 20.0, 30.0)]
        assert variances[0] >= variances[1] >= variances[2]

    def test_pair_averaging_reduces_variance(self):
        v2 = self._variance(ArrayConfig(2, 2), 20.0, 4000, 2)
        v8 = self._variance(ArrayConfig(8, 8), 20.0, 4000, 2)
        assert v8 < v2
