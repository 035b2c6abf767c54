"""Flight geometry, angle conversions, and the spatial-angle state evolution.

The tracked state is the pair of spatial angles (u, v): the per-element
phase progression along the x- and y-axes of the planar array,
u = (2*pi*d/lambda) * cos(phi) * sin(theta) and
v = (2*pi*d/lambda) * sin(phi) * sin(theta).
"""

from __future__ import annotations

import numpy as np

from .arrays import matvec


def angles_to_spatial(phi, theta: float, d_over_lambda: float = 0.5) -> np.ndarray:
    """Map azimuth/elevation to the spatial-angle pair [..., u, v] in radians.

    u = (2*pi*d/lambda) cos(phi) sin(theta), v = (2*pi*d/lambda) sin(phi) sin(theta).
    With half-wavelength spacing the leading factor is exactly pi.  d_over_lambda lies in
    (0, 0.5], the range ScenarioConfig checks: larger spacing aliases.
    """
    scale = 2.0 * np.pi * d_over_lambda
    return np.stack([
        scale * np.cos(phi) * np.sin(theta),
        scale * np.sin(phi) * np.sin(theta),
    ], axis=-1)


def elevation_from_geometry(station_height: float, flight_radius: float) -> float:
    """Elevation angle of the circular flight path seen from the station, for a positive
    height and radius; ScenarioConfig checks that its height_ratio is positive."""
    return float(np.arctan(flight_radius / station_height))


def rotation_matrix(psi: float) -> np.ndarray:
    """State transition F: 2x2 rotation by the per-frame angle psi."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s], [s, c]])


def evolve_state(x: np.ndarray, f: np.ndarray, sigma: tuple[float, float],
                 z: np.ndarray) -> np.ndarray:
    """One step of the truth dynamics x' = F x + w, w ~ N(0, diag(sigma)^2), for x of shape
    (..., 2) and its standard normals z of the same shape: F x + sigma * z.

    The result is not clamped to [-pi, pi]; out-of-range states are the
    misalignment detector's problem, not the dynamics'.
    """
    return matvec(f, x) + np.multiply(sigma, z)
