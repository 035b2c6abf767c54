"""Scenario config, Monte Carlo execution, ledger, and output emission."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beamtrack import baselines, ekf, harness
from beamtrack.analysis import bound_step
from beamtrack.baselines import ABP_SQUINT_FACTOR
from beamtrack.ekf import initial_state, jacobian, predict, step_result, update
from beamtrack.errors import ConfigError
from beamtrack.geometry import rotation_matrix
from beamtrack.harness import (
    ExperimentSummary,
    FrameRecord,
    ProposedTracker,
    ScenarioConfig,
    TRACE_COLUMNS,
    emit_summary,
    emit_trace,
    run_experiment,
    run_trial,
    trial_ledger,
)
from beamtrack.monopulse import extract_measurement

from conftest import rank1_snapshot


def small_cfg(**kw):
    base = dict(frames=10, trials=2, detect_enabled=False, seed=42)
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_rejects_bad_scheme(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="bogus")

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(frames=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(trials=0)

    def test_rejects_negative_stddev(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(sigma_u=-0.1)

    def test_rejects_bad_modes(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(q_n_mode="sometimes")
        with pytest.raises(ConfigError):
            ScenarioConfig(jacobian_mode="third-order")
        with pytest.raises(ConfigError):
            ScenarioConfig(snr_reference="antenna")
        with pytest.raises(ConfigError):
            ScenarioConfig(abp_q_n="guess")

    def test_int_float_field_accepted_exactly_when_it_is_a_float(self):
        assert ScenarioConfig(psi=2**60) == ScenarioConfig(psi=float(2**60))
        with pytest.raises(ConfigError, match="no exact float value"):
            ScenarioConfig(psi=2**53 + 1)
        # beyond the float range there is no float to compare with, and no OverflowError
        with pytest.raises(ConfigError, match="no exact float value"):
            ScenarioConfig(psi=10**400)

    def test_rejects_tiny_array(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_x=1)

    def test_rejects_gain_decaying_to_zero(self):
        for rho in (0.0, 0.5, -0.999):
            with pytest.raises(ConfigError):
                ScenarioConfig(rho_gain=rho, gain_innovation_var=0.0)
        # a unit-modulus gain without innovations stays put (or flips sign)
        for rho in (1.0, -1.0):
            assert ScenarioConfig(rho_gain=rho, gain_innovation_var=0.0).rho_gain == rho

    def test_dict_roundtrip(self):
        cfg = small_cfg(snr_db=17.0, scheme="abp")
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_unknown_field(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"bogus_field": 1})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frames": 5, "trials": 1}))
        cfg = ScenarioConfig.from_file(path)
        assert cfg.frames == 5

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(path)

    def test_from_file_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(path)

    def test_fields_are_frozen(self):
        cfg = small_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.snr_db = -5.0
        # replace builds a new config, checked and with its own pieces
        other = dataclasses.replace(cfg, seed=1, snr_db=-5.0)
        assert other.snr_db == -5.0 and cfg.snr_db == 10.0
        assert other.f is not cfg.f

    def test_pieces_built_once(self):
        cfg = small_cfg()
        for piece in ("threshold", "f", "q_p", "theta"):
            assert getattr(cfg, piece) is getattr(cfg, piece)
        assert cfg.squint == ABP_SQUINT_FACTOR / cfg.n_x
        assert small_cfg(abp_offset=0.1).squint == 0.1

    def test_derived_defaults(self):
        cfg = ScenarioConfig(frames=40)
        assert cfg.psi_value == pytest.approx(2 * np.pi / 40)
        assert cfg.k_beams == cfg.n_x
        cfg2 = ScenarioConfig(psi=0.1, codebook_k=4)
        assert cfg2.psi_value == 0.1
        assert cfg2.k_beams == 4
        assert ScenarioConfig(n_x=8, n_y=16).n == 128


class TestRunTrial:
    def test_bit_identical_repeats(self):
        cfg = small_cfg()
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

    def test_trials_differ(self):
        cfg = small_cfg()
        assert run_trial(cfg, 0) != run_trial(cfg, 1)

    def test_noiseless_static_scenario_is_exact(self):
        cfg = small_cfg(
            snr_db=500.0, sigma_u=0.0, sigma_v=0.0, sigma_init=0.0, psi=0.0,
            rho_gain=1.0, gain_innovation_var=0.0,
        )
        records = run_trial(cfg, 0)
        for rec in records[1:]:
            assert rec.err_norm <= 1e-10

    def test_tracks_moderate_drift(self):
        # high-SNR drift scenario: the median per-frame error stays small
        cfg = ScenarioConfig(frames=100, trials=1, snr_db=30.0,
                             sigma_u=0.005, sigma_v=0.005, sigma_init=0.005,
                             detect_enabled=False, seed=1)
        errs = []
        for t in range(30):
            errs.extend(r.err_norm for r in run_trial(cfg, t))
        assert np.median(errs) < 0.02

    def test_common_random_numbers_across_schemes(self):
        cfg = small_cfg(frames=8)
        truth = {
            s: [(r.u_true, r.v_true) for r in run_trial(cfg, 0, s)]
            for s in ("proposed", "codebook", "abp")
        }
        assert truth["proposed"] == truth["codebook"] == truth["abp"]

    def test_realignment_recenters_truth(self):
        from beamtrack.presets import get_preset

        cfg = get_preset("fig6")
        realigned_any = False
        for t in range(20):
            records = run_trial(cfg, t)
            for i, rec in enumerate(records):
                if rec.realigned and i + 1 < len(records):
                    realigned_any = True
                    nxt = records[i + 1]
                    assert np.hypot(nxt.u_true, nxt.v_true) < 0.5
        assert realigned_any

    def test_unknown_scheme_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            run_trial(small_cfg(), 0, "bogus")
        with pytest.raises(ConfigError, match="unknown scheme"):
            run_experiment(small_cfg(), "bogus")
        with pytest.raises(ConfigError, match="unknown scheme"):
            trial_ledger(small_cfg(), "bogus")

    def test_scheme_override_is_checked_before_anything_is_allocated(self):
        # a proposed run builds no codebook; 2**63 beams per axis is no size for a baseline's
        cfg = ScenarioConfig(codebook_k=2**63, frames=2, trials=1)
        calls = [(run_experiment, (cfg, "codebook")), (run_trial, (cfg, 0, "abp")),
                 (trial_ledger, (cfg, "codebook"))]
        tracemalloc.start()
        try:
            for fn, args in calls:
                with pytest.raises(ConfigError, match="numpy cannot address"):
                    fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_frame_indices_start_at_one(self):
        records = run_trial(small_cfg(frames=5), 0)
        assert [r.frame for r in records] == [1, 2, 3, 4, 5]


def _same_records(a: list, b: list) -> bool:
    """Field-for-field equality of two record lists, NaN equal to NaN."""
    def same(x, y):
        return x == y or (x != x and y != y)

    return len(a) == len(b) and all(
        all(same(x, y) for x, y in zip(dataclasses.astuple(r), dataclasses.astuple(q)))
        for r, q in zip(a, b))


class TestBatch:
    """A batch of trials gives each trial the records it gives alone."""

    @pytest.mark.parametrize("scheme", ["proposed", "codebook", "abp"])
    def test_fig9_trials_match_single_runs(self, scheme):
        from beamtrack.presets import get_preset

        cfg = dataclasses.replace(get_preset("fig9"), trials=5, frames=20, scheme=scheme)
        batch = harness.run_batch(cfg, range(cfg.trials))
        for t, records in enumerate(batch):
            assert _same_records(records, run_trial(cfg, t)), t

    def test_fig6_8x16_with_realignments_matches_single_runs(self):
        from beamtrack.presets import get_preset

        cfg = dataclasses.replace(get_preset("fig6"), n_y=16, trials=6)
        batch = harness.run_batch(cfg, range(cfg.trials))
        assert any(r.realigned for records in batch for r in records)
        for t, records in enumerate(batch):
            assert _same_records(records, run_trial(cfg, t)), t

    def test_predict_only_frames_stay_in_their_trials(self):
        # a low flight path takes trials to the exact Jacobian's singularity at different frames
        cfg = ScenarioConfig(jacobian_mode="exact", height_ratio=0.01, frames=20, trials=6, seed=3)
        batch = harness.run_batch(cfg, range(cfg.trials))
        valid = np.array([[r.meas_valid for r in records] for records in batch])
        # some frame fails in one trial and not in another
        assert (~valid.all(axis=0) & valid.any(axis=0)).any()
        for t, records in enumerate(batch):
            assert _same_records(records, run_trial(cfg, t)), t

    @pytest.mark.parametrize("scheme", ["proposed", "codebook", "abp"])
    def test_failed_measurement_stays_in_its_trial(self, scheme):
        # the middle snapshot has no usable measurement: all pair sums vanish (proposed), no
        # beam power (abp), NaN observations (codebook)
        cfg = small_cfg(scheme=scheme)
        good = [rank1_snapshot(0.1, 0.2, cfg), rank1_snapshot(-0.2, 0.1, cfg)]
        bad = {"proposed": rank1_snapshot(np.pi, np.pi, cfg),
               "abp": np.zeros((8, 8), dtype=complex),
               "codebook": np.full((8, 8), np.nan, dtype=complex)}[scheme]
        y = np.array([good[0], bad, good[1]])
        x0 = np.array([[0.1, 0.2], [0.1, 0.1], [-0.2, 0.1]])
        tracker = harness.TRACKERS[scheme](cfg, initial_state(x0, 0.01))
        out = tracker.step(y)
        assert out["meas_valid"] == [True, False, True]
        pred = predict(initial_state(x0[1], 0.01), cfg.f, cfg.q_p)
        assert tracker.state.x[1].tobytes() == pred.x.tobytes()
        for i in (0, 2):
            alone = harness.TRACKERS[scheme](cfg, initial_state(x0[i], 0.01))
            out_alone = alone.step(y[i])
            assert tracker.state.x[i].tobytes() == alone.state.x.tobytes()
            assert tracker.state.p[i].tobytes() == alone.state.p.tobytes()
            assert repr({k: v[i] for k, v in out.items()}) == repr(out_alone)
        # a batch whose every entry fails, and a failing batch of one: both predict only
        for start in (x0, x0[1:2]):
            tracker = harness.TRACKERS[scheme](cfg, initial_state(start, 0.01))
            out = tracker.step(np.array([bad] * len(start)))
            assert out["meas_valid"] == [False] * len(start)
            pred = predict(initial_state(start, 0.01), cfg.f, cfg.q_p)
            assert tracker.state.x.tobytes() == pred.x.tobytes()
            assert tracker.state.p.tobytes() == pred.p.tobytes()

    def test_singular_s_in_one_trial_fails_only_that_trial(self):
        # trial 1 starts with P = 0 and has no noise: its S = 0 is singular
        cfg = small_cfg(sigma_n_sq=0.0, q_n_mode="fixed")
        state = ekf.TrackerState(np.array([[0.1, 0.2], [0.1, 0.2], [0.3, -0.1]]),
                                 np.array([np.eye(2) * 1e-4, np.zeros((2, 2)), np.eye(2) * 1e-4]))
        pred = predict(state, cfg.f, np.zeros((2, 2)))
        r = np.tile([0.05, 0.1], (3, 1))
        new, innovation, k = update(pred, r, jacobian(pred.x), np.zeros((2, 2)))
        assert np.isnan(k[1]).all() and np.isfinite(k[[0, 2]]).all()
        for i in (0, 2):
            one = ekf.TrackerState(pred.x[i], pred.p[i])
            alone, innov_alone, k_alone = update(one, r[i], jacobian(one.x), np.zeros((2, 2)))
            assert new.x[i].tobytes() == alone.x.tobytes()
            assert new.p[i].tobytes() == alone.p.tobytes()
            assert k[i].tobytes() == k_alone.tobytes()
        settled, innov = ekf.settle(pred, new, innovation)
        assert settled.x[1].tobytes() == pred.x[1].tobytes() and np.isnan(innov[1]).all()
        assert step_result(innov)["meas_valid"] == [True, False, True]


class TestProposedTracker:
    def test_measurement_failure_predicts_only(self):
        # |u| = |v| = pi: every adjacent-pair sum vanishes, no measurement
        cfg = small_cfg()
        x0 = np.array([0.1, 0.1])
        tracker = ProposedTracker(cfg, initial_state(x0, 0.01))
        out = tracker.step(rank1_snapshot(np.pi, np.pi, cfg))
        assert out["meas_valid"] is False
        assert np.isnan(out["innovation_norm"])
        assert np.isnan(out["bound"])
        assert np.allclose(tracker.state.x, rotation_matrix(cfg.psi_value) @ x0, atol=1e-15)

    def test_measured_frame_reports_mse_bound(self):
        # the bound propagates the prior P through this frame's K and G with Q_n'
        cfg = small_cfg(q_n_mode="fixed")
        start = initial_state(np.array([0.1, -0.2]), 0.01)
        tracker = ProposedTracker(cfg, start)
        y = rank1_snapshot(0.11, -0.19, cfg)
        out = tracker.step(y)
        f, q_p = rotation_matrix(cfg.psi_value), cfg.q_p
        pred = predict(start, f, q_p)
        g = jacobian(pred.x, cfg.jacobian_mode)
        r = extract_measurement(y, cfg).r
        _, _, k = update(pred, r, g, np.eye(2) * cfg.sigma_n_sq)
        assert out["meas_valid"] is True
        assert out["bound"] == bound_step(start.p, k, g, f, q_p, np.eye(2) * cfg.sigma_nb_sq)


class TestRunExperiment:
    def test_single_trial_matches_trace(self):
        cfg = small_cfg(trials=1)
        summary = run_experiment(cfg)
        records = run_trial(cfg, 0)
        assert summary.per_frame_mse == pytest.approx([r.err_norm**2 for r in records])

    def test_keeps_trial_zero_records_outside_the_json(self):
        cfg = small_cfg(trials=3)
        summary = run_experiment(cfg, "abp")
        # repr, not ==: the abp trace carries NaN bounds
        assert repr(summary.trace) == repr(run_trial(cfg, 0, "abp"))
        assert "trace" not in summary.to_dict()

    @pytest.mark.parametrize("scheme", ["abp", "codebook", "proposed"])
    def test_codebook_built_once_per_experiment(self, monkeypatch, scheme):
        calls = []
        original = baselines.build_codebook

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(baselines, "build_codebook", counting)
        run_experiment(small_cfg(trials=3, frames=3), scheme)
        # only the codebook tracker reads the codebook; ABP builds its axis angles alone
        assert len(calls) == (scheme == "codebook")

    def test_bound_emitted_for_proposed_only(self):
        cfg = small_cfg(trials=1)
        assert all(b is not None for b in run_experiment(cfg, "proposed").per_frame_bound)
        assert all(b is None for b in run_experiment(cfg, "codebook").per_frame_bound)

    def test_statistical_consistency_doubling_trials(self):
        cfg_a = small_cfg(frames=20, trials=20, snr_db=20.0)
        cfg_b = small_cfg(frames=20, trials=40, snr_db=20.0)
        mse_a = np.array(run_experiment(cfg_a).per_frame_mse)
        mse_b = np.array(run_experiment(cfg_b).per_frame_mse)
        # per-frame sample std-err from the larger run
        sq = np.array([[r.err_norm**2 for r in run_trial(cfg_b, t)] for t in range(40)])
        stderr = sq.std(axis=0, ddof=1) / np.sqrt(20)
        assert np.all(np.abs(mse_a - mse_b) < 3 * stderr + 1e-15)

    def test_summary_schema(self):
        summary = run_experiment(small_cfg(trials=1)).to_dict()
        assert set(summary) == {
            "schema_version", "scenario", "per_frame_mse", "per_frame_bound",
            "detection_frames", "ledger",
        }
        assert set(summary["ledger"]) == {"m", "pilot_slots", "solve_cost"}
        assert summary["schema_version"] == 1


def _serial_and_sharded(cfg, shards):
    """The summary JSON and trace repr of cfg's run in one process and in `shards`."""
    runs = [harness._experiment(cfg, n) for n in (1, shards)]
    return [(json.dumps(s.to_dict(), sort_keys=True), repr(s.trace)) for s in runs]


def _in_block(hook):
    """A _frames stand-in that calls hook(trials) before it runs the block."""
    frames = harness._frames

    def patched(cfg, trials):
        hook(trials)
        return frames(cfg, trials)

    return patched


class TestShardCount:
    """shard_count is a pure function of the usable cores, the environment and the trials."""

    M = harness.MIN_SHARD_TRIALS

    def test_serial_without_a_blas_thread_count(self):
        # BLAS may then use every core: a second process would oversubscribe them
        assert harness.shard_count(64, {}, 100 * self.M) == 1
        assert harness.shard_count(64, {"MKL_NUM_THREADS": "1"}, 100 * self.M) == 1

    def test_one_process_per_blas_thread_group(self):
        assert harness.shard_count(2, {"OPENBLAS_NUM_THREADS": "1"}, 100 * self.M) == 2
        assert harness.shard_count(2, {"OPENBLAS_NUM_THREADS": "2"}, 100 * self.M) == 1
        assert harness.shard_count(8, {"OPENBLAS_NUM_THREADS": "2"}, 100 * self.M) == 4
        assert harness.shard_count(8, {"OPENBLAS_NUM_THREADS": "3"}, 100 * self.M) == 2
        assert harness.shard_count(1, {"OPENBLAS_NUM_THREADS": "1"}, 100 * self.M) == 1

    def test_openblas_threads_before_omp_threads(self):
        assert harness.shard_count(4, {"OMP_NUM_THREADS": "1"}, 100 * self.M) == 4
        both = {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}
        assert harness.shard_count(4, both, 100 * self.M) == 1
        # an empty OPENBLAS_NUM_THREADS is unset
        assert harness.shard_count(4, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"},
                                   100 * self.M) == 2

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", " "])
    def test_unreadable_thread_count_is_serial(self, value):
        assert harness.shard_count(8, {"OPENBLAS_NUM_THREADS": value}, 100 * self.M) == 1

    def test_each_process_gets_the_minimum_block(self):
        env = {"OPENBLAS_NUM_THREADS": "1"}
        assert harness.shard_count(8, env, 2 * self.M - 1) == 1
        assert harness.shard_count(8, env, 2 * self.M) == 2
        assert harness.shard_count(8, env, 3 * self.M + 1) == 3
        assert harness.shard_count(8, env, 1) == 1
        # the benchmark's detect-8x16 and cli-runs operations (10 and 2 trials) stay serial
        assert harness.shard_count(8, env, 10) == harness.shard_count(8, env, 2) == 1


class TestShardedRun:
    """A run split over processes gives the bytes of one batch."""

    @pytest.mark.parametrize("scheme", ["proposed", "codebook", "abp"])
    def test_fig9_each_scheme(self, scheme):
        from beamtrack.presets import get_preset

        cfg = dataclasses.replace(get_preset("fig9"), trials=12, frames=25, scheme=scheme)
        serial, sharded = _serial_and_sharded(cfg, 2)
        assert sharded == serial

    def test_fig6_8x16_with_realignments_in_several_blocks(self):
        from beamtrack.presets import get_preset

        cfg = dataclasses.replace(get_preset("fig6"), n_y=16, trials=9)
        serial, sharded = _serial_and_sharded(cfg, 3)
        assert sharded == serial
        blocks = {t // 3 for t, _ in json.loads(serial[0])["detection_frames"]}
        assert len(blocks) > 1

    def test_predict_only_frames(self):
        # a low flight path takes trials to the exact Jacobian's singularity at different
        # frames: NaN rows and bounds in more than one block
        cfg = ScenarioConfig(jacobian_mode="exact", height_ratio=0.01, frames=20, trials=6, seed=3)
        invalid = [t for t, records in enumerate(harness.run_batch(cfg, range(cfg.trials)))
                   if not all(r.meas_valid for r in records)]
        assert {t // 3 for t in invalid} == {0, 1}
        serial, sharded = _serial_and_sharded(cfg, 2)
        assert sharded == serial

    def test_uneven_split(self):
        cfg = small_cfg(trials=67, frames=6, detect_enabled=True)
        serial, sharded = _serial_and_sharded(cfg, 3)
        assert sharded == serial

    def test_run_experiment_is_the_helper_at_the_host_shard_count(self, monkeypatch):
        counts = []
        helper = harness._experiment
        monkeypatch.setattr(harness, "_experiment", lambda cfg, n: counts.append(n) or helper(cfg, n))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cfg = small_cfg(trials=2 * harness.MIN_SHARD_TRIALS)
        run_experiment(cfg)
        cores = len(os.sched_getaffinity(0))
        assert counts == [harness.shard_count(cores, {"OPENBLAS_NUM_THREADS": "1"}, cfg.trials)]


class TestShardLifecycle:
    """Children report their failures, print nothing and never outlive the run."""

    def test_normal_return_leaves_no_child_and_prints_nothing(self, capfd):
        harness._experiment(small_cfg(trials=6), 3)
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("exc_type", [ZeroDivisionError, ConfigError, MemoryError])
    def test_child_exception_reaches_the_caller_with_its_type(self, monkeypatch, capfd, exc_type):
        def fail_late_blocks(trials):
            if trials.start > 0:
                raise exc_type("a child failed")

        monkeypatch.setattr(harness, "_frames", _in_block(fail_late_blocks))
        with pytest.raises(exc_type, match="a child failed"):
            harness._experiment(small_cfg(trials=6), 3)
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")

    def test_child_exception_that_does_not_pickle_is_a_runtime_error(self, monkeypatch, capfd):
        class LocalError(Exception):  # pickle cannot name a class defined in a function
            pass

        def fail_late_blocks(trials):
            if trials.start > 0:
                raise LocalError("a child failed")

        monkeypatch.setattr(harness, "_frames", _in_block(fail_late_blocks))
        with pytest.raises(RuntimeError, match="LocalError: a child failed"):
            harness._experiment(small_cfg(trials=6), 2)
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")

    def test_failing_parent_stops_running_children(self, monkeypatch, capfd):
        def children_hang(trials):
            if trials.start > 0:
                time.sleep(60)
            raise ValueError("the first block failed")

        monkeypatch.setattr(harness, "_frames", _in_block(children_hang))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="the first block failed"):
            harness._experiment(small_cfg(trials=6), 3)
        assert time.perf_counter() - t0 < 30
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")

    def test_child_that_dies_is_an_error(self, monkeypatch):
        def die(trials):
            if trials.start > 0:
                os._exit(7)

        monkeypatch.setattr(harness, "_frames", _in_block(die))
        with pytest.raises(RuntimeError, match="trials 3 to 5 ended with exit code 7"):
            harness._experiment(small_cfg(trials=6), 2)
        assert multiprocessing.active_children() == []

    def test_child_memory_error_exits_track_run_with_2(self, monkeypatch, tmp_path):
        from click.testing import CliRunner

        from beamtrack.cli import main

        def no_memory_late(trials):
            if trials.start > 0:
                raise MemoryError()

        monkeypatch.setattr(harness, "_frames", _in_block(no_memory_late))
        monkeypatch.setattr(harness, "shard_count", lambda cores, environ, trials: 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 3, "trials": 4}))
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "config error: the proposed run does not fit in memory" in result.output
        assert "Traceback" not in result.output
        assert multiprocessing.active_children() == []

    def _python(self, code):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # stdout is a pipe, so the parent's print is still in its buffer when it forks
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_piped_stdout_is_not_copied_into_children(self):
        proc = self._python(
            "from beamtrack import harness\n"
            "print('before')\n"
            "harness._experiment(harness.ScenarioConfig(trials=6, frames=3), 3)\n"
            "print('after')\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\nafter\n", "")

    def test_serial_run_imports_nothing_new(self):
        proc = self._python(
            "import sys\n"
            "from beamtrack import harness\n"
            "before = set(sys.modules)\n"
            "harness.run_experiment(harness.ScenarioConfig(trials=2, frames=3))\n"
            "print(sorted(set(sys.modules) - before))\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestLedger:
    def test_proposed_relations(self):
        led = trial_ledger(ScenarioConfig(frames=100), "proposed")
        assert led.m == 2
        assert led.pilot_slots == 100
        assert led.solve_cost == 100 * 2**3

    def test_abp_relations(self):
        led = trial_ledger(ScenarioConfig(frames=10), "abp")
        assert led.m == 2
        assert led.pilot_slots == 10 * 64

    def test_codebook_relations(self):
        led = trial_ledger(ScenarioConfig(frames=10), "codebook")
        assert led.m == 2 * 64
        assert led.pilot_slots == 10 * 64
        assert led.solve_cost == 10 * (2 * 64) ** 3

    def test_custom_codebook_size(self):
        led = trial_ledger(ScenarioConfig(frames=10, codebook_k=4), "codebook")
        assert led.m == 32
        assert led.pilot_slots == 160


class TestEmission:
    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace([], path)
        assert path.read_text() == TRACE_COLUMNS + "\n"

    def test_trace_row_count_and_columns(self, tmp_path):
        cfg = small_cfg(frames=7)
        path = tmp_path / "t.csv"
        emit_trace(run_trial(cfg, 0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("frame,u_true,v_true,u_hat,v_hat,err_norm,err_norm_hat,"
                            "p_r,detected,realigned,bound,innov_norm,meas_valid")
        assert len(lines) == 8
        assert all(len(line.split(",")) == 13 for line in lines)

    def test_summary_roundtrip(self, tmp_path):
        summary = run_experiment(small_cfg(trials=2))
        path = tmp_path / "s.json"
        emit_summary(summary, path)
        parsed = json.loads(path.read_text())
        assert parsed == summary.to_dict()

    def test_byte_stable(self, tmp_path):
        cfg = small_cfg()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_summary(run_experiment(cfg), a)
        emit_summary(run_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_failure_names_path(self, tmp_path):
        summary = ExperimentSummary(
            scenario={}, per_frame_mse=[], per_frame_bound=[],
            detection_frames=[], ledger={},
        )
        missing = tmp_path / "no_such_dir" / "s.json"
        with pytest.raises(OSError, match="no_such_dir"):
            emit_summary(summary, missing)


def test_frame_record_field_order_matches_columns():
    fields = list(FrameRecord.__dataclass_fields__)
    assert ",".join(fields) == TRACE_COLUMNS
