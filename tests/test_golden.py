"""Golden outputs: sha256 of `track run` files for three presets x three schemes,
plus, with the proposed scheme, fig6 on an 8x16 array (the detector's rectangular mesh)
and fig6 with zero-scale draws: no truth drift and no realignment residual, at an SNR
that realigns often (21 times).  A zero scale times a negative normal is -0.0, where
Generator.normal's 0.0 + scale * z is +0.0; that case pins that the sign does not reach
the outputs.

Each case runs in-process `track run` on a preset with trials=5 and seed 0,
and hashes the trace CSV and the summary JSON it writes.  The hashes change
only together with SCHEMA_VERSION or the rng version; on a mismatch the
assertion message carries the full mapping of actual hashes.  The bytes do
not depend on the Python version: a builtin sum that compensates round-off,
as from Python 3.12 on, leaves them unchanged.
"""

import dataclasses
import hashlib
import json

from click.testing import CliRunner

from beamtrack import cli, harness
from beamtrack.cli import main
from beamtrack.presets import get_preset

SCHEMES = ("proposed", "codebook", "abp")
# (label, preset, field overrides, schemes)
CASES = [(name, name, {}, SCHEMES) for name in ("fig4a", "fig6", "fig9")] + [
    ("fig6-8x16", "fig6", {"n_y": 16}, ("proposed",)),
    ("fig6-zero-scale", "fig6", {"sigma_u": 0.0, "sigma_v": 0.0, "detect_residual": 0.0,
                                 "snr_db": -20.0, "sigma_init": 1.0}, ("proposed",)),
]

GOLDEN = {
    "fig4a/abp_summary.json": "2f1a34d9c29f7c3fc93054ac23b58e96f454d03c34f461abfcfcba588b7882d2",
    "fig4a/abp_trace.csv": "291d0c18321321a135c7bd456ff2e6891056895316c013c042abeb252f7ea62a",
    "fig4a/codebook_summary.json": "78af1a4bf45d88d7f87eb45e73f799ceb72db6b8b1557fb5c5c7783c42bd70f9",
    "fig4a/codebook_trace.csv": "2999c0940e7f8a53ea1ac6f6745b33daa00b0a7a26b8a0bab1a280fafeec962e",
    "fig4a/proposed_summary.json": "f9379a8fa3ad39d38364f7522fba21f00f1eaba980af22a2c8a9fa9cd11238d0",
    "fig4a/proposed_trace.csv": "eac26b0c65943d075ce4617818decb414df282f2447c6e864a1b868c996284f6",
    "fig6-8x16/proposed_summary.json": "77ffae9ca762194484de8a8b51f6ba88582a839a28460743ef8a6acf201a6b1c",
    "fig6-8x16/proposed_trace.csv": "5a0d68f3441fb7060c7fbb41e271c109e25b55142919415e72878d8d2d46d76c",
    "fig6-zero-scale/proposed_summary.json": "0b0b100b90526905d5752335dcad9436d74303b3921ae1e6400130ab992ac8e8",
    "fig6-zero-scale/proposed_trace.csv": "f68e3ed33dc48dc999b41f22465d62808c36a9786bb90c691068cd38cd939a98",
    "fig6/abp_summary.json": "4d5eb056d714aed609087221df94766c1776a329e769c2a5f354393f43a9a039",
    "fig6/abp_trace.csv": "ad3b44b186fd930bedd543afb2215bdf234b2f21b85dbadb5a61859806d56cc3",
    "fig6/codebook_summary.json": "1e6a75bce350f23bb246378b1e74109cde13691cab033595a04fce9b18d60d31",
    "fig6/codebook_trace.csv": "19d8a2e24106ab6019379a280e700d6b0dfc0266fb378e62894c2b65e5746c27",
    "fig6/proposed_summary.json": "605e965ce35e25920ed3e168180d2a15fb912199e25d380545a1fe50dda9fd62",
    "fig6/proposed_trace.csv": "03a0c20aecc5a03eba3bd75a8f885c09551b3cb5d65f3817f362a4f102a8e312",
    "fig9/abp_summary.json": "661f986dc30d454f42b6fecf6687e3eaccac624bb855ab6b53e47672908cf7ff",
    "fig9/abp_trace.csv": "288af20485003adcac59a0647ce782053f542c4b779b9164f3ae87b746909477",
    "fig9/codebook_summary.json": "73b298dd224ce0a1fbea94fb91263c3bb8686a3c9aa49c79fcd832eb64029c46",
    "fig9/codebook_trace.csv": "40f086c0014152456fadc0f7d1c8b633640598a7b10b9323a7bc8a48b810af2b",
    "fig9/proposed_summary.json": "b1d596dd075589480ab55e71b476dd4823334d9ed2c389c4ecbd17fd620d02cf",
    "fig9/proposed_trace.csv": "73e297b5e1500b8441c743d8493715f8be6074db38b17f393ec125af451826f4",
}


def _actual_hashes(tmp_path, cases=CASES, stdout=None) -> dict:
    """The hashes of each case's output files; each run's stdout is appended to stdout."""
    runner = CliRunner()
    hashes = {}
    for name, preset, overrides, schemes in cases:
        cfg = dataclasses.replace(get_preset(preset), trials=5, seed=0, **overrides)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        for scheme in schemes:
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["run", "--config", str(cfg_path), "--scheme", scheme, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            if stdout is not None:
                stdout.append(result.output)
            for suffix in ("trace.csv", "summary.json"):
                data = (out / f"{scheme}_{suffix}").read_bytes()
                hashes[f"{name}/{scheme}_{suffix}"] = hashlib.sha256(data).hexdigest()
    return hashes


def test_golden_outputs(tmp_path):
    actual = _actual_hashes(tmp_path)
    assert actual == GOLDEN, "actual hashes:\n" + json.dumps(actual, indent=4, sort_keys=True)


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, the way the builtin sum adds floats from Python 3.12 on."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_outputs_do_not_depend_on_the_builtin_sum(tmp_path_factory, monkeypatch):
    fig9 = [case for case in CASES if case[0] == "fig9"]
    stdout, compensated_stdout = [], []
    expected = _actual_hashes(tmp_path_factory.mktemp("builtin"), fig9, stdout)
    for module in (harness, cli):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    actual = _actual_hashes(tmp_path_factory.mktemp("compensated"), fig9, compensated_stdout)
    assert actual == expected == {key: GOLDEN[key] for key in expected}
    assert compensated_stdout == stdout
