"""CLI contract: run / presets list / compare, exit codes, output files."""

import json
import math
import sys

import pytest
from click.testing import CliRunner

from beamtrack import cli, harness
from beamtrack.cli import main
from beamtrack.presets import preset_names


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "frames": 5, "trials": 2, "snr_db": 20.0, "detect_enabled": False,
        "seed": 9,
    }))
    return path


def test_presets_list(runner):
    result = runner.invoke(main, ["presets", "list"])
    assert result.exit_code == 0
    listed = result.output.split()
    assert listed == sorted(preset_names())
    assert "fig7" in listed


def test_run_writes_outputs(runner, tiny_config, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(tiny_config), "--out", str(out)])
    assert result.exit_code == 0
    assert (out / "proposed_trace.csv").exists()
    assert (out / "proposed_summary.json").exists()
    summary = json.loads((out / "proposed_summary.json").read_text())
    assert len(summary["per_frame_mse"]) == 5


def test_run_scheme_override(runner, tiny_config, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["run", "--config", str(tiny_config), "--scheme", "abp", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert (out / "abp_summary.json").exists()


def test_run_seed_override_changes_output(runner, tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    runner.invoke(main, ["run", "--config", str(tiny_config), "--out", str(out_a)])
    runner.invoke(main, ["run", "--config", str(tiny_config), "--seed", "123",
                         "--out", str(out_b)])
    assert ((out_a / "proposed_trace.csv").read_bytes()
            != (out_b / "proposed_trace.csv").read_bytes())


def test_run_unknown_config_exits_2(runner):
    result = runner.invoke(main, ["run", "--config", "definitely_not_a_preset"])
    assert result.exit_code == 2


def test_run_invalid_json_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 2


def test_run_directory_config_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["run", "--config", str(tmp_path)])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_run_non_utf8_config_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 2


def test_run_simulates_each_trial_once(runner, tiny_config, tmp_path, monkeypatch):
    # every simulation, a single trial's too, runs through the batched frame engine
    calls = []
    original = harness._frames

    def counting(cfg, trials, read):
        calls.extend(trials)
        return original(cfg, trials, read)

    monkeypatch.setattr(harness, "_frames", counting)
    result = runner.invoke(main, ["run", "--config", str(tiny_config), "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert sorted(calls) == [0, 1]


@pytest.mark.parametrize("fields", [
    {"rho_gain": 1.5},
    {"d_over_lambda": 0.7},
    {"frames": 2.5},
    {"psi": "abc"},
    {"q_n_window": 1},
    {"detect_threshold": 5.0},
    {"snr_db": float("nan")},
    {"gain_innovation_var": -1.0},
    {"height_ratio": 0},
    {"scheme": "codebook", "codebook_k": 0},
    {"scheme": "abp", "abp_offset": -0.1},
    {"sigma_u": float("inf")},
    {"sigma_nb_sq": float("inf")},
    {"detect_residual": -0.02},
    {"detect_threshold": 0.0},
    {"snr_db": float("-inf")},
    {"rho_gain": 0.0, "gain_innovation_var": 0.0},
    {"rho_gain": 0.5, "gain_innovation_var": 0.0},
    {"snr_db": 1e308},
    {"snr_db": -4000.0},
    {"sigma_u": 1e300},
    {"sigma_v": 1e300},
    {"sigma_init": 1e200},
    {"scheme": "codebook", "gain_uncertainty_var": 1e308},
    {"snr_db": -3100},
    {"scheme": "abp", "snr_db": -1600},
    {"gain_innovation_var": 1e308},
    {"azimuth_range_deg": -1.0},
    {"sigma_init": -0.0},
    {"detect_residual": -0.0},
    {"sigma_u": 10723151780598845931},
    {"psi": 2**70 + 1},
    {"detect_residual": 1e308, "detect_threshold": 1e-6},
    {"scheme": "abp", "abp_offset": 1e308},
    {"azimuth_range_deg": -0.0},
    {"sigma_nb_sq": -1.0},
    {"sigma_n_sq": -1.0, "q_n_mode": "fixed"},
    {"scheme": "abp", "sigma_n_sq": -1.0, "abp_q_n": "fixed"},
    {"scheme": "codebook", "gain_uncertainty_var": -5.0},
    {"sigma_n_sq": -0.0},
    {"sigma_nb_sq": -0.0},
    {"gain_uncertainty_var": -0.0},
    {"sigma_nb_sq": 1e308},
    # sizes whose arrays have more bytes than numpy can address
    {"n_x": 2**63},
    {"n_y": 2**62},
    {"scheme": "abp", "codebook_k": 2**63},
    {"frames": 2**63},
    # the rng keys take a seed modulo 2**64: these two would run as seeds 2**64 - 1 and 0
    {"seed": -1},
    {"seed": 2**64},
])
def test_run_invalid_value_exits_2(runner, tmp_path, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frames": 3, "trials": 1, **fields}))
    result = runner.invoke(main, ["run", "--config", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.startswith("config error: ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "proposed_summary.json").exists()


@pytest.mark.parametrize("args", [["run", "--scheme", "abp"], ["compare"]])
def test_scheme_override_checks_codebook_size(runner, tmp_path, args):
    # a proposed run builds no codebook; a baseline chosen on the command line does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frames": 3, "trials": 1, "codebook_k": 2**63}))
    result = runner.invoke(main, [*args, "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.startswith("config error: ")
    assert not list(tmp_path.glob("*_summary.json"))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output


def test_run_accepts_infinite_snr(runner, tmp_path):
    # +inf SNR is the noiseless branch, the one float field allowed infinite
    cfg = tmp_path / "noiseless.json"
    cfg.write_text(json.dumps({"frames": 3, "trials": 1, "snr_db": float("inf")}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "proposed_summary.json").exists()


@pytest.mark.parametrize("fields", [
    {"scheme": "proposed", "snr_db": -1500},
    {"scheme": "codebook", "snr_db": -1500},
    {"scheme": "abp", "snr_db": -1500},
    {"scheme": "codebook", "gain_uncertainty_var": 1e300},
    # ints beyond int64 that are exact floats: numpy must see them as floats
    {"scheme": "proposed", "psi": 2**70},
    {"scheme": "proposed", "azimuth_range_deg": 2**64},
])
def test_run_extreme_but_finite_values_exit_0(runner, tmp_path, fields):
    # the limits above reject only values whose noise variances leave the float range
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps({"frames": 3, "trials": 1, **fields}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / f"{fields['scheme']}_summary.json").exists()


@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize("field, limit", [
    # the largest variance whose square is finite
    ("gain_innovation_var", math.sqrt(sys.float_info.max)),
    ("sigma_nb_sq", math.sqrt(sys.float_info.max)),
    # one period of the steering vectors
    ("sigma_u", 2 * math.pi),
    ("sigma_v", 2 * math.pi),
    ("sigma_init", 2 * math.pi),
    ("detect_residual", 2 * math.pi),
])
def test_limit_value_runs_and_next_float_exits_2(runner, tmp_path, scheme, field, limit):
    # a threshold of 1e-6 realigns every frame, so detect_residual is drawn too
    fields = {"frames": 3, "trials": 1, "scheme": scheme, "detect_threshold": 1e-6}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**fields, field: limit}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    cfg.write_text(json.dumps({**fields, field: math.nextafter(limit, math.inf)}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.startswith("config error: ")


@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize("rho_gain", [0.0, 0.5])
def test_smallest_normal_gain_innovation_runs_and_next_float_down_exits_2(
    runner, tmp_path, scheme, rho_gain
):
    # a decaying gain needs innovations whose |alpha|^2 does not underflow to zero
    fields = {"frames": 3, "trials": 1, "scheme": scheme, "rho_gain": rho_gain}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**fields, "gain_innovation_var": sys.float_info.min}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    below = math.nextafter(sys.float_info.min, 0.0)
    cfg.write_text(json.dumps({**fields, "gain_innovation_var": below}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.startswith("config error: ")


@pytest.mark.parametrize("fields", [
    {"snr_db": 300, "gain_uncertainty_var": 1e-30, "sigma_init": 6.28},
    {"gain_uncertainty_var": 1e-300},
    {"snr_db": float("inf"), "gain_uncertainty_var": 0, "gain_innovation_var": 0, "rho_gain": 1},
    # no process noise, an exact start and no assumed noise: S = 0 for the proposed and
    # fixed-Q_n ABP filters
    {"sigma_u": 0, "sigma_v": 0, "sigma_init": 0, "sigma_n_sq": 0, "abp_q_n": "fixed"},
    # a low flight path reaches the exact Jacobian's singularity at |u| = pi
    {"jacobian_mode": "exact", "height_ratio": 0.01, "frames": 20, "trials": 5},
])
def test_codebook_singular_innovation_covariance_exits_0(runner, tmp_path, fields):
    # Q_n negligible next to G P G^T makes S singular; on every scheme such frames are
    # predict-only
    for scheme in harness.SCHEMES:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 5, "trials": 1, "scheme": scheme, **fields}))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, (scheme, result.output)
        assert (tmp_path / f"{scheme}_summary.json").exists()


def test_size_that_does_not_fit_in_memory_exits_2(runner, tiny_config, tmp_path, monkeypatch):
    # a valid size such as frames = 2**40 fails its first allocation; the real size is
    # never allocated here
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_experiment", out_of_memory)
    result = runner.invoke(main, ["run", "--config", str(tiny_config), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "config error: the proposed run does not fit in memory" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("trials", [2**62, 2**70])
def test_trials_that_cannot_be_allocated_exit_2(runner, tmp_path, trials):
    # the batch sizes its per-trial arrays by the trial count; numpy refuses this one
    # before allocating anything
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": trials, "frames": 2}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "config error: the proposed run does not fit in memory" in result.output
    assert "Traceback" not in result.output


def test_columns_that_cannot_be_allocated_exit_2(runner, tmp_path):
    # a run keeps (frames, trials) arrays; numpy cannot address these
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2**20, "frames": 2**44}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "config error: the proposed run does not fit in memory" in result.output
    assert "Traceback" not in result.output


def test_run_bad_field_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scheme": "bogus"}))
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 2


def test_out_dir_collision_exits_3(runner, tiny_config, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    result = runner.invoke(main, ["run", "--config", str(tiny_config),
                                  "--out", str(blocker)])
    assert result.exit_code == 3


def test_unwritable_output_file_exits_3(runner, tiny_config, tmp_path):
    out = tmp_path / "out"
    (out / "proposed_trace.csv").mkdir(parents=True)
    result = runner.invoke(main, ["run", "--config", str(tiny_config), "--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: cannot write ")
    assert "Traceback" not in result.output


def test_env_var_overrides_out_dir(runner, tiny_config, tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("BEAMTRACK_OUT", str(env_dir))
    result = runner.invoke(main, ["run", "--config", str(tiny_config),
                                  "--out", str(tmp_path / "ignored")])
    assert result.exit_code == 0
    assert (env_dir / "proposed_summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_compare_writes_all_schemes(runner, tiny_config, tmp_path):
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", "--config", str(tiny_config),
                                  "--schemes", "proposed,abp", "--out", str(out)])
    assert result.exit_code == 0
    assert (out / "proposed_summary.json").exists()
    assert (out / "abp_summary.json").exists()


def test_compare_unknown_scheme_exits_2(runner, tiny_config):
    result = runner.invoke(main, ["compare", "--config", str(tiny_config),
                                  "--schemes", "proposed,bogus"])
    assert result.exit_code == 2


def test_compare_without_schemes_exits_2(runner, tiny_config, tmp_path):
    result = runner.invoke(main, ["compare", "--config", str(tiny_config),
                                  "--schemes", ",", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "config error: no scheme given" in result.output
    assert not list(tmp_path.glob("*_summary.json"))


def test_run_accepts_preset_name(runner, tmp_path, monkeypatch):
    # presets are full figure scenarios; only check that the name resolves
    # and config errors are not raised, using the cheapest preset override
    from beamtrack.presets import get_preset
    cfg = get_preset("fig4a")
    assert cfg.frames == 100
