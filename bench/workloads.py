"""The benchmark's workloads and the checks on their outputs.

A workload turns the benchmark seed into an endless cycle of operations.
An operation's key names the workload and every parameter that determines
its output, so a digest recorded for a key applies to any run that performs
that operation, whatever the benchmark seed.  Why each workload exists, and
which layers it stresses and bypasses, is in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from beamtrack import cli, harness, presets

SCHEMES = ("proposed", "abp", "codebook")


@dataclasses.dataclass(frozen=True)
class Op:
    """One benchmark operation."""

    workload: str
    scheme: str
    trials: int
    frames: int
    params: dict

    @property
    def key(self) -> str:
        return json.dumps({"workload": self.workload, **self.params}, sort_keys=True)

    @property
    def trial_frames(self) -> int:
        """Trial-frames the operation asks for."""
        return self.trials * self.frames


class Workload:
    """Base: ops come in groups, and a timed run stops only between groups."""

    name = ""
    group = 1                   # ops in one complete group
    min_ops = 0                 # ops a timed run needs before it may stop
    nominal_group_s = 1.0       # sizes the traced run; no effect on timing
    cycle = 1                   # ops before ops(seed) repeats itself

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs the operations read."""

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def ops(self, seed: int):
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def output(self, op: Op, result) -> bytes:
        """The operation's output bytes, as the program emits them."""
        raise NotImplementedError

    def problems(self, op: Op, data: bytes) -> list[str]:
        """What is malformed in the output bytes."""
        raise NotImplementedError


def summary_problems(data: bytes, frames: int) -> list[str]:
    """Malformations of an emitted summary JSON."""
    try:
        d = json.loads(data)
    except ValueError:
        return ["summary does not parse"]
    if not isinstance(d, dict):
        return ["summary is not a JSON object"]
    probs = []
    if d.get("schema_version") != harness.SCHEMA_VERSION:
        probs.append(f"schema_version missing or not {harness.SCHEMA_VERSION}")
    mse = d.get("per_frame_mse")
    if not isinstance(mse, list) or len(mse) != frames:
        probs.append("per_frame_mse missing or of wrong length")
    elif not all(isinstance(x, (int, float)) and math.isfinite(x) and x >= 0 for x in mse):
        probs.append("per_frame_mse has a non-finite or negative value")
    bound = d.get("per_frame_bound")
    if not isinstance(bound, list) or len(bound) != frames:
        probs.append("per_frame_bound missing or of wrong length")
    elif not all(x is None or (isinstance(x, (int, float)) and math.isfinite(x)) for x in bound):
        probs.append("per_frame_bound has a non-finite value")
    if not isinstance(d.get("detection_frames"), list):
        probs.append("detection_frames missing")
    return probs


class _Simulation(Workload):
    """Operations that call harness.run_experiment on a preset variant."""

    preset = ""
    overrides: dict = {}

    def __init__(self, workdir: Path, tiny: bool = False):
        super().__init__(workdir, tiny)
        self.frames = presets.get_preset(self.preset).frames

    def _op(self, scheme: str, trials: int, **params) -> Op:
        return Op(
            self.name, scheme, trials, self.frames,
            {"preset": self.preset, "scheme": scheme, "trials": trials,
             **self.overrides, **params},
        )

    def run(self, op: Op):
        p = op.params
        cfg = dataclasses.replace(
            presets.get_preset(p["preset"]),
            trials=p["trials"],
            seed=p["seed"],
            **{k: v for k, v in p.items() if k not in ("preset", "scheme", "trials", "seed")},
        )
        return harness.run_experiment(cfg, op.scheme)

    def output(self, op: Op, result) -> bytes:
        path = self.workdir / "summary.json"
        harness.emit_summary(result, path)
        return path.read_bytes()

    def problems(self, op: Op, data: bytes) -> list[str]:
        return summary_problems(data, op.frames)


class Fig9Sweep(_Simulation):
    """fig9 on 8x8, detection off; one op per (SNR, scheme), CRN across schemes."""

    name = "fig9-sweep"
    preset = "fig9"
    group = len(SCHEMES)
    nominal_group_s = 12.0
    SNRS_DB = tuple(float(s) for s in range(-4, 15, 2))
    cycle = len(SNRS_DB) * len(SCHEMES)

    def __init__(self, workdir: Path, tiny: bool = False):
        super().__init__(workdir, tiny)
        self.trials = 2 if tiny else 100

    def warmup(self) -> list[Op]:
        return [self._op(s, 2, snr_db=10.0, seed=0) for s in SCHEMES]

    def ops(self, seed: int):
        start = seed % len(self.SNRS_DB)
        for i in itertools.count():
            snr = self.SNRS_DB[(start + i) % len(self.SNRS_DB)]
            for scheme in SCHEMES:
                yield self._op(scheme, self.trials, snr_db=snr, seed=seed)


class Detect8x16(_Simulation):
    """fig6 dynamics (large drift, detection on) on an 8x16 array, proposed only."""

    name = "detect-8x16"
    preset = "fig6"
    overrides = {"n_y": 16}
    nominal_group_s = 3.0
    cycle = 16                  # distinct simulation seeds per benchmark seed

    def __init__(self, workdir: Path, tiny: bool = False):
        super().__init__(workdir, tiny)
        self.trials = 1 if tiny else 10

    def warmup(self) -> list[Op]:
        return [self._op("proposed", 1, seed=0)]

    def ops(self, seed: int):
        for i in itertools.count():
            yield self._op("proposed", self.trials, seed=seed * self.cycle + i % self.cycle)

    def problems(self, op: Op, data: bytes) -> list[str]:
        probs = super().problems(op, data)
        if not probs:
            for pair in json.loads(data)["detection_frames"]:
                if not (0 <= pair[0] < op.trials and 1 <= pair[1] <= op.frames):
                    probs.append(f"detection frame {pair} out of range")
                    break
        return probs


class CliRuns(Workload):
    """In-process `track run` invocations on generated JSON configs, trials=2."""

    name = "cli-runs"
    nominal_group_s = 3.5
    TRIALS = 2
    SEEDS = 4                   # CLI seeds rotated per benchmark seed

    def __init__(self, workdir: Path, tiny: bool = False):
        super().__init__(workdir, tiny)
        self.preset_names = presets.preset_names()
        self.combos = [(p, s) for s in SCHEMES for p in self.preset_names]
        self.group = len(self.combos)
        self.cycle = self.group * self.SEEDS
        # at least ten latency samples must lie beyond the 90th percentile
        self.min_ops = 0 if tiny else 5 * self.group
        self.frames = {}
        self.out_dir = workdir / "out"

    def setup(self) -> None:
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir()
        for name in self.preset_names:
            cfg = dataclasses.replace(presets.get_preset(name), trials=self.TRIALS)
            (cfg_dir / f"{name}.json").write_text(json.dumps(cfg.to_dict(), indent=2))
            self.frames[name] = cfg.frames

    def _op(self, preset: str, scheme: str, seed: int) -> Op:
        return Op(
            self.name, scheme, self.TRIALS, self.frames[preset],
            {"preset": preset, "scheme": scheme, "seed": seed, "trials": self.TRIALS},
        )

    def warmup(self) -> list[Op]:
        return [self._op("fig9", s, 0) for s in SCHEMES]

    def ops(self, seed: int):
        for i in itertools.count():
            preset, scheme = self.combos[i % self.group]
            yield self._op(preset, scheme, seed * self.SEEDS + (i // self.group) % self.SEEDS)

    def run(self, op: Op):
        p = op.params
        args = [
            "run",
            "--config", str(self.workdir / "configs" / f"{p['preset']}.json"),
            "--scheme", op.scheme,
            "--seed", str(p["seed"]),
            "--out", str(self.out_dir),
        ]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(args=args, prog_name="track", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue() + err.getvalue()

    def output(self, op: Op, result) -> bytes:
        code, text = result
        parts = [f"exit {code or 0}\n{text}".encode()]
        for suffix in ("trace.csv", "summary.json"):
            path = self.out_dir / f"{op.scheme}_{suffix}"
            parts.append(path.read_bytes() if path.exists() else b"")
            path.unlink(missing_ok=True)
        return b"\0".join(parts)

    def problems(self, op: Op, data: bytes) -> list[str]:
        head, trace, summary = data.split(b"\0")
        probs = []
        if not head.startswith(f"exit 0\n{op.scheme}: frames={op.frames} ".encode()):
            probs.append(f"unexpected exit or stdout: {head[:200]!r}")
        rows = trace.decode(errors="replace").splitlines()
        if not rows or rows[0].split(",")[0] != "frame":
            probs.append("trace has no header")
        elif len(rows) != op.frames + 1:
            probs.append("trace has the wrong number of rows")
        else:
            width = len(rows[0].split(","))
            try:
                bad = any(len([float(x) for x in r.split(",")]) != width for r in rows[1:])
            except ValueError:
                bad = True
            if bad:
                probs.append("trace does not parse")
        return probs + summary_problems(summary, op.frames)


WORKLOADS = {w.name: w for w in (Fig9Sweep, Detect8x16, CliRuns)}


class Checker:
    """Checks outputs against their form, the recorded digests and earlier repeats."""

    def __init__(self, recorded: dict):
        self.recorded_version = recorded.get("schema_version")
        self.recorded = recorded.get("ops", {})
        self.seen: dict[str, str] = {}

    def check(self, workload: Workload, op: Op, data: bytes) -> tuple[list[str], str]:
        """Problems with one operation's output, and its sha256 digest."""
        probs = workload.problems(op, data)
        digest = hashlib.sha256(data).hexdigest()
        if self.recorded_version != harness.SCHEMA_VERSION:
            probs.append(
                f"digests are recorded for schema {self.recorded_version}, "
                f"the program writes schema {harness.SCHEMA_VERSION}"
            )
        elif self.recorded.get(op.key, digest) != digest:
            probs.append("output differs from its recorded digest")
        if self.seen.setdefault(op.key, digest) != digest:
            probs.append("output differs from an earlier run of the same operation")
        return probs, digest
