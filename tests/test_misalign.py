"""Beamformed-power error estimation and misalignment detection."""

import numpy as np
import pytest

from beamtrack import misalign
from beamtrack.arrays import abs2, vec
from beamtrack.channel import beamforming_weight, channel_matrix, combine
from beamtrack.errors import ConfigError
from beamtrack.harness import ScenarioConfig
from beamtrack.misalign import (
    detect_step,
    estimate_error_norm,
    search_grid,
)

CFG8 = ScenarioConfig()
STEP8, EXTENT8 = search_grid(8)


def _model_power(xi_norm, n_x=8):
    """The cos^4(n_x ||xi|| / 4) main-lobe model, written out as the oracle."""
    return float(np.cos(n_x * xi_norm / 4.0) ** 4)


def _data_power(x, est):
    """The noiseless data-phase power p_r of the harness at unit gain on 8x8: the beam
    toward est combines the channel toward x; 1 up to round-off at zero offset."""
    w = beamforming_weight(np.asarray(est, dtype=float), CFG8)
    h_vec = vec(channel_matrix(1.0, np.asarray(x, dtype=float), CFG8))
    return float(abs2(combine(w, h_vec, np.zeros_like(h_vec))) / CFG8.n)


def _table_pairs(n_x=8):
    """The square table's (norm, power) pairs, ascending in norm."""
    vals, norms, _ = misalign._power_table(n_x, n_x)
    order = np.argsort(norms)
    return np.asarray(norms)[order], np.asarray(vals)[order]


class TestReceivedPower:
    def test_aligned_is_one(self):
        assert _data_power([0.3, -0.2], [0.3, -0.2]) == pytest.approx(1.0, abs=1e-14)

    def test_first_null(self):
        x = np.array([2 * np.pi / 8, 0.0])
        assert _data_power(x, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_known_offset_value(self):
        # oracle: (sin(0.8) / (8 sin(0.1)))^2, evaluated independently
        p = _data_power([0.2, 0.0], [0.0, 0.0])
        expected = (np.sin(0.8) / (8 * np.sin(0.1))) ** 2
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.806748, abs=1e-6)

    def test_symmetric_in_sign(self):
        est = np.array([0.0, 0.0])
        pp = _data_power([0.15, 0.1], est)
        pm = _data_power([-0.15, -0.1], est)
        assert pp == pytest.approx(pm, abs=1e-14)


class TestApproxPower:
    """The cos^4 main-lobe power model, read from the square table's (norm, power) pairs."""

    def test_zero_offset(self):
        norms, powers = _table_pairs()
        assert (norms[0], powers[0]) == (0.0, 1.0)

    def test_null_boundary(self):
        # the grid stops at 0.95 of the first null, where the model is near zero
        norms, powers = _table_pairs()
        assert norms[-1] == pytest.approx(EXTENT8)
        assert 0.0 < powers[-1] == pytest.approx(0.0, abs=1e-4)

    def test_known_value(self):
        # oracle: cos^4(8 * 0.2 / 4) = cos^4(0.4), at the grid norm nearest 0.2
        norms, powers = _table_pairs()
        i = int(np.argmin(np.abs(norms - 0.2)))
        assert powers[i] == pytest.approx(np.cos(2.0 * norms[i]) ** 4, abs=1e-15)
        assert np.interp(0.2, norms, powers) == pytest.approx(0.719703, abs=1e-5)

    def test_approximation_quality_main_lobe(self):
        # diagonal offsets xi_1 = xi_2 = ||xi||/sqrt(2) over half the main
        # lobe.  The cos^4 form decays faster than the true pattern (its
        # quadratic coefficient is 1/8 vs 1/12); the measured worst-case
        # deviation is recorded here, and the detection presets compensate
        # by calibrating their threshold through the worst-case pattern.
        norms, powers = _table_pairs()
        worst = 0.0
        for xi, p in zip(norms[norms <= np.pi / 8], powers):
            off = xi / np.sqrt(2)
            exact = _data_power([off, off], [0, 0])
            worst = max(worst, abs(exact - p))
        print(f"main-lobe approximation max deviation: {worst:.5f}")
        assert worst == pytest.approx(0.179, abs=0.002)


class TestEstimateErrorNorm:
    def test_full_power_zero_error(self):
        assert estimate_error_norm(1.0, 8) == 0.0

    def test_roundtrip_on_every_grid_point(self):
        grid = np.arange(0.0, EXTENT8 + STEP8 / 2, STEP8)
        for g in grid:
            p = _model_power(g)
            assert estimate_error_norm(p, 8) == pytest.approx(g, abs=1e-15)

    def test_zero_power_saturates(self):
        grid = np.arange(0.0, EXTENT8 + STEP8 / 2, STEP8)
        assert estimate_error_norm(0.0, 8) == pytest.approx(grid[-1])
        # the data-phase power at the first null, round-off near zero
        null = _data_power([2 * np.pi / 8, 0.0], [0.0, 0.0])
        assert null < 1e-12
        assert estimate_error_norm(null, 8) == pytest.approx(grid[-1])

    def test_clamps_above_one(self):
        assert estimate_error_norm(1.3, 8) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            estimate_error_norm(-0.1, 8)

    def test_rectangular_array_inverts_norm(self):
        # rectangular path: power from a diagonal offset on an 8x4 array
        est = estimate_error_norm(0.9, 8, 4)
        assert 0.0 < est < EXTENT8 * np.sqrt(2) + 1e-12

    @pytest.mark.parametrize("n_y", [8, 16])
    @pytest.mark.parametrize("p_r", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, p_r, n_y):
        with pytest.raises(ValueError, match="finite"):
            estimate_error_norm(p_r, 8, n_y)


def _reference_search(n_x: int, n_y: int):
    """The exhaustive grid and mesh search the table replaces, kept as the oracle.

    The grid is built once per shape; each probe repeats the full search.
    """
    grid_step, grid_max = search_grid(n_x)
    if n_y == n_x:
        grid = np.arange(0.0, grid_max + grid_step / 2.0, grid_step)
        vals = np.cos(n_x * grid / 4.0) ** 4

        def search(p):
            return float(grid[np.argmin(np.abs(p - vals))])
        return search
    step = max(grid_step, grid_max / 200.0)
    axis = np.arange(0.0, grid_max + step / 2.0, step)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    vals = np.cos(n_x * gx / 4.0) ** 2 * np.cos(n_y * gy / 4.0) ** 2
    norms = np.hypot(gx, gy)

    def search(p):
        err = np.abs(p - vals)
        near = err <= err.min() + 1e-15
        return float(norms[near].min())
    return search


class TestPowerTable:
    @pytest.mark.parametrize("n_x,n_y", [(8, 8), (8, 16), (16, 8), (8, 4), (16, 16)])
    def test_equals_exhaustive_search(self, n_x, n_y):
        search = _reference_search(n_x, n_y)
        table = np.asarray(misalign._power_table(n_x, n_y)[0])
        rng = np.random.default_rng(4)
        every = table[::50]
        probes = np.concatenate([
            rng.uniform(0.0, 1.0, 300),
            rng.uniform(0.0, 1e-3, 300),
            every,
            ((table[1:] + table[:-1]) / 2.0)[::50],
            np.nextafter(every, 2.0),
            np.nextafter(every, -1.0),
            [0.0, 1.0, 1.5],
        ])
        for p in probes:
            if p >= 0.0:
                assert estimate_error_norm(p, n_x, n_y) == search(min(p, 1.0)), p

    def test_built_once_per_config(self):
        misalign._power_table.cache_clear()
        for _ in range(3):
            estimate_error_norm(0.5, 8, 16)
        assert misalign._power_table.cache_info().hits == 2
        estimate_error_norm(0.5, 8, 4)
        info = misalign._power_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        wide = misalign._power_table(8, 16)[0]
        narrow = misalign._power_table(8, 4)[0]
        assert not np.array_equal(wide, narrow)


class TestDetectConfig:
    """The detector's settings are ScenarioConfig's detect_* fields."""

    def test_defaults(self):
        assert ScenarioConfig().threshold == 0.89 * np.pi / 8
        assert ScenarioConfig(detect_threshold=0.2).threshold == 0.2
        assert search_grid(8) == ((2 * np.pi / 8) / 1000.0, 0.95 * (2 * np.pi / 8))

    def test_validation(self):
        extent = search_grid(8)[1]
        for threshold in (0.0, -0.1, float(np.nextafter(extent, 1.0))):
            with pytest.raises(ConfigError):
                ScenarioConfig(detect_threshold=threshold)
        assert ScenarioConfig(detect_threshold=extent).threshold == extent
        with pytest.raises(ConfigError):
            ScenarioConfig(detect_consecutive=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(detect_residual=-0.02)
        assert ScenarioConfig(detect_residual=0.0).detect_residual == 0.0


class TestDetectStep:
    def test_never_realigns_below_threshold(self):
        counter = np.zeros((), dtype=int)
        for _ in range(50):
            est = detect_step(0.95, CFG8, counter)
            assert not est.detected and not est.realigned

    def test_detects_on_synthetic_ramp(self):
        # error norm ramps linearly; with model-consistent noiseless power
        # the detection frame is exactly the first threshold crossing
        counter = np.zeros((), dtype=int)
        realign_frame = None
        first_crossing = None
        for k, xi in enumerate(np.linspace(0.0, 0.6, 61)):
            if first_crossing is None and xi > CFG8.threshold:
                first_crossing = k
            p = _model_power(min(xi, EXTENT8))
            est = detect_step(p, CFG8, counter)
            if est.realigned:
                realign_frame = k
                break
        assert first_crossing is not None
        assert realign_frame == first_crossing

    def test_detects_true_pattern_ramp_with_calibrated_threshold(self):
        # against the true pattern the cos^4 inversion reads low, so the
        # detection presets calibrate the threshold; with the 0.8 factor
        # the detection lag on a diagonal ramp stays within 2 frames
        cfg = ScenarioConfig(detect_threshold=0.8 * 0.89 * np.pi / 8)
        counter = np.zeros((), dtype=int)
        nominal = 0.89 * np.pi / 8
        realign_frame = None
        first_crossing = None
        for k, xi in enumerate(np.linspace(0.0, 0.6, 61)):
            if first_crossing is None and xi > nominal:
                first_crossing = k
            off = xi / np.sqrt(2)
            p = _data_power([off, off], [0, 0])
            est = detect_step(p, cfg, counter)
            if est.realigned:
                realign_frame = k
                break
        assert first_crossing is not None
        assert realign_frame is not None
        assert abs(realign_frame - first_crossing) <= 2

    def test_consecutive_requirement(self):
        cfg = ScenarioConfig(detect_consecutive=3)
        counter = np.zeros((), dtype=int)
        low = _model_power(cfg.threshold * 1.5)
        flags = [detect_step(low, cfg, counter).realigned for _ in range(3)]
        assert flags == [False, False, True]
        assert counter == 0  # counter reset after realignment

    def test_counter_resets_on_good_frame(self):
        cfg = ScenarioConfig(detect_consecutive=2)
        counter = np.zeros((), dtype=int)
        low = _model_power(cfg.threshold * 1.5)
        detect_step(low, cfg, counter)
        detect_step(1.0, cfg, counter)
        assert counter == 0

    def test_disabled_never_detects(self):
        cfg = ScenarioConfig(detect_enabled=False)
        counter = np.zeros((), dtype=int)
        est = detect_step(0.0, cfg, counter)
        assert not est.detected and not est.realigned

    def test_clipped_flag(self):
        counter = np.zeros((), dtype=int)
        assert detect_step(1.2, CFG8, counter).clipped
