"""Named scenario presets for the simulation study's figure scenarios."""

from __future__ import annotations

from math import pi

from .errors import ConfigError
from .harness import ScenarioConfig


PRESETS = {
    # real-time tracking, stable geometry, high SNR
    "fig4a": lambda: ScenarioConfig(
        frames=100, trials=100, snr_db=30.0,
        sigma_u=0.005, sigma_v=0.005, sigma_init=0.005,
    ),
    # same, dynamic channel
    "fig4b": lambda: ScenarioConfig(
        frames=100, trials=100, snr_db=10.0,
        sigma_u=0.01, sigma_v=0.01, sigma_init=0.005,
    ),
    # normalized beamforming-gain comparison
    "fig5": lambda: ScenarioConfig(
        frames=100, trials=100, snr_db=10.0,
        sigma_u=0.005, sigma_v=0.005, sigma_init=0.005,
    ),
    # misalignment detection: low station, large drift.  The fixed noise
    # mode keeps the filter gain high so the small-angle Jacobian's
    # large-angle overshoot (the failure mode the detector exists for)
    # actually manifests.
    # The detector threshold is the nominal 3dB error norm mapped through
    # the worst-case (single-axis) beam pattern instead of the diagonal
    # cos^4 approximation; the estimated norm reads ~0.82x low for
    # single-axis offsets, which dominate the divergence excursions here.
    "fig6": lambda: ScenarioConfig(
        frames=100, trials=200, snr_db=30.0,
        sigma_u=0.05, sigma_v=0.05, sigma_init=0.02,
        height_ratio=2.0, detect_enabled=True, detect_residual=0.02,
        q_n_mode="fixed", detect_threshold=0.8 * 0.89 * pi / 8,
    ),
    # MSE bound dominance
    "fig7": lambda: ScenarioConfig(
        frames=50, trials=1000, snr_db=10.0,
        sigma_u=0.005, sigma_v=0.005, sigma_init=5e-5,
        sigma_n_sq=5e-6, sigma_nb_sq=3e-5, q_n_mode="fixed",
        detect_enabled=False,
    ),
    # initial-error sensitivity: the two presets differ only in sigma_init.
    # The shared drift (5e-4, geometric mean of the two initial-error
    # levels) is moderate enough that the transient is visible but both
    # settings reach the same steady state within a few frames.
    "fig8_small": lambda: ScenarioConfig(
        frames=50, trials=500, snr_db=10.0,
        sigma_u=5e-4, sigma_v=5e-4, sigma_init=5e-5,
        detect_enabled=False,
    ),
    "fig8_large": lambda: ScenarioConfig(
        frames=50, trials=500, snr_db=10.0,
        sigma_u=5e-4, sigma_v=5e-4, sigma_init=5e-3,
        detect_enabled=False,
    ),
    # base point of the SNR sweep; sweep snr_db around it
    "fig9": lambda: ScenarioConfig(
        frames=50, trials=500, snr_db=10.0,
        sigma_u=0.01, sigma_v=0.01, sigma_init=5e-5,
        detect_enabled=False,
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> ScenarioConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return factory()
