"""Command-line interface: `track run`, `track presets list`, `track compare`.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
The output directory can be overridden with the BEAMTRACK_OUT environment
variable.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from .arrays import ordered_sum
from .errors import ConfigError
from .harness import (
    ScenarioConfig,
    SCHEMES,
    _for_scheme,
    emit_summary,
    emit_trace,
    run_experiment,
)
from .presets import get_preset, preset_names

EXIT_CONFIG = 2
EXIT_IO = 3


def _load_config(spec: str) -> ScenarioConfig:
    path = Path(spec)
    if path.exists():
        return ScenarioConfig.from_file(path)
    return get_preset(spec)


def _out_dir(out: str | None) -> Path:
    env = os.environ.get("BEAMTRACK_OUT")
    d = Path(env) if env else Path(out or ".")
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"error: cannot create output directory: {exc}", err=True)
        sys.exit(EXIT_IO)
    return d


def _run_schemes(config_spec: str, seed: int | None, out: str | None,
                 schemes: list[str | None]) -> None:
    """Load the scenario, then run and emit each scheme (None: the scenario's own).

    A configuration error exits with EXIT_CONFIG before anything runs; so does a valid
    size that does not fit in memory, once a run meets it.
    """
    try:
        cfg = _load_config(config_spec)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if not schemes:
            raise ConfigError("no scheme given")
        cfgs = [_for_scheme(cfg, s) for s in schemes]
        out_dir = _out_dir(out)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    for cfg in cfgs:
        try:
            summary = run_experiment(cfg)
        except MemoryError:
            click.echo(f"config error: the {cfg.scheme} run does not fit in memory", err=True)
            sys.exit(EXIT_CONFIG)
        try:
            emit_trace(summary.trace, out_dir / f"{cfg.scheme}_trace.csv")
            emit_summary(summary, out_dir / f"{cfg.scheme}_summary.json")
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)
        mse = summary.per_frame_mse
        mean_mse = ordered_sum(mse) / len(mse)
        click.echo(f"{cfg.scheme}: frames={cfg.frames} trials={cfg.trials} mean MSE={mean_mse:.3e}")


@click.group()
def main():
    """Monopulse EKF beam-tracking simulator."""


@main.command()
@click.option("--config", "config_spec", required=True,
              help="Path to a JSON scenario file or a preset name.")
@click.option("--scheme", default=None, type=click.Choice(SCHEMES),
              help="Override the scenario's tracking scheme.")
@click.option("--seed", default=None, type=int, help="Override the RNG seed.")
@click.option("--out", default=None, help="Output directory (default: cwd).")
def run(config_spec, scheme, seed, out):
    """Run one scenario; writes <scheme>_trace.csv and <scheme>_summary.json."""
    _run_schemes(config_spec, seed, out, [scheme])


@main.group()
def presets():
    """Preset scenario management."""


@presets.command("list")
def presets_list():
    """List the named figure scenarios."""
    for name in preset_names():
        click.echo(name)


@main.command()
@click.option("--config", "config_spec", required=True,
              help="Path to a JSON scenario file or a preset name.")
@click.option("--schemes", default="proposed,codebook,abp",
              help="Comma-separated schemes to compare.")
@click.option("--seed", default=None, type=int, help="Override the RNG seed.")
@click.option("--out", default=None, help="Output directory (default: cwd).")
def compare(config_spec, schemes, seed, out):
    """Run several schemes on paired noise; one output pair per scheme."""
    _run_schemes(config_spec, seed, out, [s.strip() for s in schemes.split(",") if s.strip()])


if __name__ == "__main__":
    main()
