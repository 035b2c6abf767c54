"""Geometry: angle conversions and the rotational state-evolution model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamtrack.geometry import (
    angles_to_spatial,
    elevation_from_geometry,
    evolve_state,
    rotation_matrix,
)

NO_NOISE = (0.0, 0.0)


def _rotate(u, v, psi, sigma=NO_NOISE, seed=0):
    z = np.random.default_rng(seed).standard_normal(2)
    return evolve_state(np.array([u, v]), rotation_matrix(psi), sigma, z)


class TestAnglesToSpatial:
    def test_endfire_boresight_plane(self):
        u, v = angles_to_spatial(0.0, np.pi / 2, 0.5)
        assert u == pytest.approx(np.pi, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_quarter_azimuth(self):
        u, v = angles_to_spatial(np.pi / 2, np.pi / 2, 0.5)
        assert u == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(np.pi, abs=1e-12)

    def test_low_elevation_value(self):
        # oracle: pi * cos(0) * sin(0.1244), evaluated independently
        u, v = angles_to_spatial(0.0, 0.1244, 0.5)
        assert u == pytest.approx(np.pi * np.sin(0.1244), abs=1e-12)
        assert u == pytest.approx(0.38985, abs=5e-5)
        assert v == 0.0


class TestElevationFromGeometry:
    def test_high_station(self):
        assert elevation_from_geometry(8.0, 1.0) == pytest.approx(0.1244, abs=5e-5)

    def test_unit_ratio(self):
        assert elevation_from_geometry(1.0, 1.0) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_low_station(self):
        assert elevation_from_geometry(2.0, 1.0) == pytest.approx(np.arctan(0.5), abs=1e-12)
        assert elevation_from_geometry(2.0, 1.0) == pytest.approx(0.46365, abs=5e-5)


class TestEvolveState:
    def test_identity_rotation(self):
        u, v = _rotate(1.0, 0.0, 0.0)
        assert u == pytest.approx(1.0, abs=1e-15)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_quarter_rotation(self):
        u, v = _rotate(1.0, 0.0, np.pi / 2)
        assert u == pytest.approx(0.0, abs=1e-15)
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_small_rotation_values(self):
        # oracle: [[cos, -sin], [sin, cos]] @ (0.3, 0.4) at psi = 0.01
        u, v = _rotate(0.3, 0.4, 0.01)
        c, sn = np.cos(0.01), np.sin(0.01)
        assert u == pytest.approx(0.3 * c - 0.4 * sn, abs=1e-15)
        assert v == pytest.approx(0.3 * sn + 0.4 * c, abs=1e-15)
        assert u == pytest.approx(0.29599, abs=5e-5)
        assert v == pytest.approx(0.40297, abs=5e-5)
        assert np.hypot(u, v) == pytest.approx(0.5, abs=1e-12)

    def test_seed_determinism(self):
        a = _rotate(0.1, 0.2, 0.3, sigma=(0.01, 0.02), seed=7)
        b = _rotate(0.1, 0.2, 0.3, sigma=(0.01, 0.02), seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _rotate(0.1, 0.2, 0.3))

    def test_drift_is_sigma_times_each_normal(self):
        # rows of x are trials, each with its own two normals
        x = np.array([[0.1, 0.2], [-0.4, 0.3]])
        f, z = rotation_matrix(0.3), np.array([[1.5, -0.5], [0.25, 2.0]])
        out = evolve_state(x, f, (0.01, 0.02), z)
        for xi, zi, oi in zip(x, z, out):
            assert np.array_equal(oi, f @ xi + np.array([0.01 * zi[0], 0.02 * zi[1]]))

    def test_not_clamped_out_of_range(self):
        u, v = _rotate(3.0, 3.0, 0.5)
        assert max(abs(u), abs(v)) > np.pi  # value passed through, no clamp
        assert np.hypot(u, v) == pytest.approx(np.hypot(3.0, 3.0), abs=1e-12)


@given(
    u=st.floats(-3, 3),
    v=st.floats(-3, 3),
    psi=st.floats(-2 * np.pi, 2 * np.pi),
)
def test_rotation_preserves_norm(u, v, psi):
    s = _rotate(u, v, psi)
    assert np.hypot(*s) == pytest.approx(np.hypot(u, v), abs=1e-12)


@given(
    u=st.floats(-3, 3),
    v=st.floats(-3, 3),
    psi=st.floats(-np.pi, np.pi),
)
def test_rotation_composition(u, v, psi):
    once = _rotate(u, v, psi)
    twice = _rotate(*once, psi)
    direct = _rotate(u, v, 2 * psi)
    assert twice == pytest.approx(direct, abs=1e-12)


def test_rotation_matrix_orthogonal():
    f = rotation_matrix(0.37)
    assert np.allclose(f @ f.T, np.eye(2), atol=1e-15)
