"""Scenario configuration, seeded Monte Carlo execution, and output emission.

A trial simulates frames of: truth evolution -> pilot snapshot ->
tracker step (predict/update; the proposed tracker also reports its MSE
bound) -> data-phase beamformed power -> misalignment detection (optional
realignment).  All schemes consume identical truth and noise streams per
(trial, frame), so scheme comparisons are paired.

run_experiment splits a run's trials into contiguous blocks, one per process
(shard_count: the usable cores over the BLAS threads, at most one per
MIN_SHARD_TRIAL_FRAMES trial-frames and one per trial, one process when no BLAS
thread count is set); the first block runs in the calling process, each other
in a forked child that sends back the columns the summary folds.  The trials
of a block advance together: truth, gain, estimate, covariance, Q_n window,
detector counters and measurement validity are arrays with a leading trial
axis, and run_trial is a batch of one.  The frames go in chunks of up to
CHUNK_ENTRIES snapshot entries, one frame at least.  A chunk first
synthesizes (_synthesize), for all its (frame, trial) pairs, what does not
depend on the estimate: each purpose's draws are one array of
rng.trial_normals, a stream per (frame, trial); the truth and gain steps run
frame by frame; the channel, noise level, pilot snapshot, each tracker's
observation of it (Tracker.observe) and the data-phase noise are one call
each.  Then a frame loop keeps what reads the estimate: the tracker step, the
data-phase combiner, the detector and the record.  With the detector off only
the trials whose records the caller reads (all of run_batch's, trial 0 of
run_experiment's) run the data phase; the others hold NaN and False there.
A trial realigned in a
chunk restarts its truth from a residual drawn with trial_normals too, and
_synthesize runs again on the realigned trials' rest of the chunk, from the
residual and with the draws already made: _synthesize is the one place the
truth advances.  Only the initial draw and the detector's table lookup stay
per trial; the codebook's update goes a block of trials at a time.  A block builds one
tracker, which builds its own tables (the baselines' beam weights), so a
config holds none.  This module holds no tracker: TRACKERS maps each scheme to
its class (ekf.ProposedTracker, the baselines' two) and precedes the config,
whose FIELD_RULES row for scheme is its keys.

Same bytes when batching: a trial's records do not depend on the batch it runs
in or on the chunk length, and equal those of the per-trial loop this
replaced.  Each batched operation rounds like the per-entry call (the
primitives of beamtrack.arrays).  A block's records are (frames, trials)
arrays, one per FrameRecord field; the summary puts the blocks' columns side
by side in trial order and sums over trials in that order
(arrays.ordered_sum), so a run's bytes do not depend on its process count.
_records makes the Python scalars a record holds.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import rng as rngmod
from .arrays import abs2, mean, norm, ordered_sum, vec
from .baselines import ABP_SQUINT_FACTOR, AbpTracker, CodebookTracker
from .channel import (beamforming_weight, channel_matrix, combine, complex_noise, evolve_gain,
                      noise_variance, synthesize_rx)
from .ekf import ProposedTracker, initial_state
from .errors import ConfigError
from .geometry import (
    angles_to_spatial,
    elevation_from_geometry,
    evolve_state,
    rotation_matrix,
)
from .misalign import detect_step, search_grid

SCHEMA_VERSION = 1

# value types each field annotation accepts; bool and int never stand in for each other
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}

_FLOAT_MAX = sys.float_info.max

TRACKERS = {"proposed": ProposedTracker, "codebook": CodebookTracker, "abp": AbpTracker}
SCHEMES = tuple(TRACKERS)

# Per-field rules, read after the type check: a closed range (lo, hi[, why]), where a lower
# limit of +0.0 also rejects -0.0 and one of math.ulp(0.0), the smallest positive float,
# rejects zero, or the tuple of allowed strings.  A float field without a row must be finite.
# Every rule that reads one field is a row; ScenarioConfig.__post_init__ keeps the rules that
# read more than one, and the library functions trust the ranges checked here.
FIELD_RULES = {
    **dict.fromkeys(
        ("n_x", "n_y"), (2, math.inf, "monopulse extraction needs at least 2 elements per axis")),
    # codebook_k is checked here, not by building the K^2-beam codebook
    **dict.fromkeys(("frames", "trials", "codebook_k", "detect_consecutive"), (1, math.inf)),
    # +inf SNR is meaningful (the noiseless branch of complex_noise); -inf is not
    "snr_db": (-_FLOAT_MAX, math.inf),
    # angle std-devs: steering vectors repeat every 2*pi, so a wider spread only inflates
    # the filters' P (sigma_init 1e7 makes the codebook's S singular); normal() rejects -0.0
    **dict.fromkeys(("sigma_u", "sigma_v", "sigma_init", "detect_residual"), (0.0, 2 * math.pi)),
    **dict.fromkeys(("azimuth_range_deg", "sigma_n_sq", "gain_uncertainty_var"), (0.0, _FLOAT_MAX)),
    # the bound adds sigma_nb_sq |K|^2 (|K|^2 <= 8, G >= I/2): a finite square has room
    "sigma_nb_sq": (0.0, math.sqrt(_FLOAT_MAX)),
    # |alpha|^2 grows like this variance and the pilot power is N |alpha|^2 (1e307 overflows
    # it): a finite square leaves headroom.  -0.0 means no innovations, as in evolve_gain
    "gain_innovation_var": (-0.0, math.sqrt(_FLOAT_MAX)),
    "rho_gain": (-1.0, 1.0),
    # the station is above the flight path
    "height_ratio": (math.ulp(0.0), _FLOAT_MAX),
    "d_over_lambda": (math.ulp(0.0), 0.5, "larger spacing aliases"),
    "abp_offset": (math.ulp(0.0), math.pi),
    # the Q_n estimate is a sample variance, which needs two innovations
    "q_n_window": (2, math.inf),
    # the rng keys mask the seed to 64 bits, so a seed outside would alias one inside
    "seed": (0, 2**64 - 1),
    "scheme": SCHEMES,
    "snr_reference": ("element", "array"),
    "q_n_mode": ("fixed", "estimated"),
    "jacobian_mode": ("paper-approx", "exact"),
    "abp_q_n": ("fixed", "delta"),
}


def _check_field(name: str, annotation: str, value) -> None:
    base, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return
    if isinstance(value, bool) != (base == "bool") or not isinstance(value, _FIELD_TYPES[base]):
        raise ConfigError(f"{name} must be {annotation}, got {value!r}")
    # an int is a float value only if it is one exactly; float() overflows beyond the range
    if base == "float" and isinstance(value, int) and (abs(value) > _FLOAT_MAX
                                                       or float(value) != value):
        raise ConfigError(f"{name}: the integer {value} has no exact float value")
    rule = FIELD_RULES.get(name, (-_FLOAT_MAX, _FLOAT_MAX) if base == "float" else ())
    if isinstance(value, str):
        if rule and value not in rule:
            raise ConfigError(f"{name} must be one of {rule}, got {value!r}")
    elif rule:
        lo, hi, *why = rule
        if not (lo <= value <= hi and (value or math.copysign(1, value) >= math.copysign(1, lo))):
            raise ConfigError("; ".join([f"{name} must lie in [{lo}, {hi}], got {value!r}", *why]))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment; the pieces a run reads are
    built once per config and shared by every trial."""

    n_x: int = 8
    n_y: int = 8
    scheme: str = "proposed"
    frames: int = 50
    trials: int = 100
    snr_db: float = 10.0
    snr_reference: str = "array"
    sigma_u: float = 0.005
    sigma_v: float = 0.005
    sigma_init: float = 5e-5
    psi: float | None = None            # None -> 2*pi / frames
    height_ratio: float = 8.0           # h / R_o
    azimuth_range_deg: float = 30.0
    d_over_lambda: float = 0.5
    rho_gain: float = 0.995
    gain_innovation_var: float | None = 1e-4  # None -> literal 1 - rho^2/2, see gain_var
    sigma_n_sq: float = 5e-6            # filter's assumed monopulse noise var
    q_n_mode: str = "estimated"
    q_n_window: int = 20
    jacobian_mode: str = "paper-approx"
    codebook_k: int | None = None       # None -> n_x
    abp_offset: float | None = None     # None -> half 3dB beamwidth
    abp_q_n: str = "delta"              # "delta" propagation or "fixed" sigma_n_sq*I
    gain_uncertainty_var: float = 0.5   # codebook filter's design inflation
    sigma_nb_sq: float = 3e-5           # relaxed bound measurement variance
    detect_enabled: bool = True
    detect_threshold: float | None = None       # None -> 3dB beamwidth, see threshold
    detect_consecutive: int = 1
    detect_residual: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, f.type, getattr(self, f.name))
        # without innovations the gain decays to zero and the received power with it; below
        # the smallest normal float |alpha|^2 underflows to zero all the same
        if self.gain_var < sys.float_info.min and abs(self.rho_gain) < 1:
            raise ConfigError(
                "gain_innovation_var below the smallest normal float needs |rho_gain| = 1")
        try:
            # numpy describes no array of more bytes than an intp counts: the complex snapshot
            # (K^2 of them as a baseline's codebook weights), the float frames-long sums
            beams = 1 if self.scheme == "proposed" else self.k_beams**2
            if max(16 * beams * self.n, 8 * self.frames) > np.iinfo(np.intp).max:
                raise ValueError("n_x, n_y, codebook_k or frames size an array numpy cannot address")
            if not 0 < self.threshold <= search_grid(self.n_x)[1]:
                raise ValueError("detect_threshold must lie in (0, the search grid extent]")
            # the baselines' measurement noise terms must stay in the float range
            AbpTracker.noise_terms(self)
            if not math.isfinite(CodebookTracker.noise_var(self)):
                raise OverflowError("the codebook measurement noise variance is not finite")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except (OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"a value leaves the float range: {exc}") from exc

    # derived pieces, built once -----------------------------------

    @property
    def n(self) -> int:
        """Element count N = n_x * n_y."""
        return self.n_x * self.n_y

    @property
    def psi_value(self) -> float:
        # numpy keeps an int beyond int64 as a Python object, which has no cos
        return 2.0 * np.pi / self.frames if self.psi is None else float(self.psi)

    @property
    def k_beams(self) -> int:
        return self.n_x if self.codebook_k is None else self.codebook_k

    @cached_property
    def threshold(self) -> float:
        """Detector threshold p_th on the error norm; by default the 3dB beamwidth."""
        return 0.89 * np.pi / self.n_x if self.detect_threshold is None else self.detect_threshold

    @cached_property
    def gain_var(self) -> float:
        """Variance of the gain innovation; by default the literal 1 - rho^2/2 of the source
        model, which does not vanish at rho = 1 (unusual for a Gauss-Markov process) and is
        positive for every |rho| <= 1."""
        giv = self.gain_innovation_var
        return 1.0 - self.rho_gain**2 / 2.0 if giv is None else giv

    @cached_property
    def f(self) -> np.ndarray:
        """State transition F, the rotation by psi per frame."""
        return rotation_matrix(self.psi_value)

    @cached_property
    def q_p(self) -> np.ndarray:
        return np.diag([self.sigma_u**2, self.sigma_v**2])

    @cached_property
    def theta(self) -> float:
        """Elevation of the flight path seen from the station."""
        return elevation_from_geometry(self.height_ratio, 1.0)

    @property
    def squint(self) -> float:
        """ABP beam-pair offset delta, radians of spatial angle."""
        return ABP_SQUINT_FACTOR / self.n_x if self.abp_offset is None else self.abp_offset

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        try:
            return ScenarioConfig(**d)
        except TypeError as exc:
            raise ConfigError(f"bad configuration field: {exc}") from exc

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        return ScenarioConfig.from_dict(data)


@dataclass
class FrameRecord:
    frame: int
    u_true: float
    v_true: float
    u_hat: float
    v_hat: float
    err_norm: float
    err_norm_hat: float
    p_r: float
    detected: bool
    realigned: bool
    bound: float
    innov_norm: float
    meas_valid: bool


TRACE_COLUMNS = ",".join(f.name for f in fields(FrameRecord))


@dataclass
class ComplexityLedger:
    """Table-of-complexity accounting: measurement size and pilot slots."""

    m: int
    pilot_slots: int            # per trial, units of T_s
    solve_cost: int             # per trial, m^3 proxy


def _for_scheme(cfg: ScenarioConfig, scheme: str | None) -> ScenarioConfig:
    """cfg, or its copy that runs another scheme, checked like any config."""
    return cfg if scheme in (None, cfg.scheme) else replace(cfg, scheme=scheme)


# a chunk of frames synthesizes at most this many complex snapshot entries (frames x trials x
# elements) at once: 64 KiB an array, below glibc's 128 KiB mmap threshold, and a short tail
# for a realignment to recompute
CHUNK_ENTRIES = 4096


def _synthesize(cfg: ScenarioConfig, tracker, truth, gain, draws):
    """Everything a block of frames reads that does not depend on the estimate, from the
    truth and gain before its first frame (a leading trial axis) and its (process, gain,
    pilot, data) draws, each with a leading frame axis: the truth and gain of each frame,
    stepped with evolve_state and evolve_gain, the tracker's observations of the pilot
    snapshots, then the channel vectors and data-phase element noise of the leading trials
    the data draws cover.  The one place the truth and the gain advance."""
    process, innovation, pilot, data = draws
    truths = np.empty(process.shape)
    gains = np.empty(innovation.shape[:-1], complex)
    for j in range(len(truths)):
        truth = truths[j] = evolve_state(truth, cfg.f, (cfg.sigma_u, cfg.sigma_v), process[j])
        gain = gains[j] = evolve_gain(gain, cfg.rho_gain, innovation[j], cfg.gain_var)
    h = channel_matrix(gains, truths, cfg)
    var = noise_variance(cfg, mean(np.abs(vec(h)) ** 2))
    obs = tracker.observe(synthesize_rx(h, var, pilot))
    h_vec, var = vec(h)[:, :data.shape[1]], var[:, :data.shape[1], None]
    return truths, gains, h_vec, obs, complex_noise(h_vec.shape, var, data)


def _frames(cfg: ScenarioConfig, trials, read: int) -> dict[str, np.ndarray]:
    """Simulate the trials as one batch: each FrameRecord field after `frame` by name, a
    (frames, trials) array whose row k - 1 holds frame k.  Each chunk of frames first
    synthesizes everything that does not depend on the estimate, then steps the trackers
    frame by frame; a trial realigned mid-chunk has the rest of the chunk synthesized again
    from its residual truth.  The next chunk starts from the last frame's truth and gain.
    With the detector off only the first `read` trials, whose records the caller reads, run
    the data phase: the others' p_r and err_norm_hat hold NaN, detected and realigned False."""
    try:
        x_hat0 = np.empty((len(trials), 2))
        cols = {f.name: np.empty((cfg.frames, len(trials)), bool if f.type == "bool" else float)
                for f in fields(FrameRecord)[1:]}
    except (ValueError, OverflowError) as exc:
        raise MemoryError(f"the batch of trials does not fit in an array: {exc}") from exc
    data = len(trials) if cfg.detect_enabled else min(read, len(trials))
    cols["p_r"][:, data:] = cols["err_norm_hat"][:, data:] = np.nan
    cols["detected"][:, data:] = cols["realigned"][:, data:] = False
    lim = np.deg2rad(float(cfg.azimuth_range_deg))
    phi = np.empty(len(trials))
    for i, t in enumerate(trials):
        init_rng = rngmod.stream(cfg.seed, t, 0, "init")
        phi[i] = init_rng.uniform(-lim, lim)
        x_hat0[i] = init_rng.normal(0.0, cfg.sigma_init, 2)
    truth = angles_to_spatial(phi, cfg.theta, cfg.d_over_lambda)
    x_hat0 += truth

    tracker = TRACKERS[cfg.scheme](cfg, initial_state(x_hat0, cfg.sigma_init))
    restart = initial_state(np.zeros(2), cfg.sigma_init)
    consecutive = np.zeros(len(trials), dtype=int)
    gain = np.full(len(trials), 1.0 + 0.0j)
    keys = rngmod.trial_keys(cfg.seed, trials)
    # the truth drift, the gain innovation: 2 normals; the pilot and data noise: 2 per element
    draws_of = {"process": (2, keys), "gain": (2, keys), "pilot": (2 * cfg.n, keys),
                "data": (2 * cfg.n, keys[:data])}
    chunk = max(1, CHUNK_ENTRIES // (len(trials) * cfg.n))

    for first in range(1, cfg.frames + 1, chunk):
        frames = range(first, min(first + chunk, cfg.frames + 1))
        draws = [rngmod.trial_normals(cfg.seed, k, frames, p, c) for p, (c, k) in draws_of.items()]
        truths, gains, h_vec, obs, noise = _synthesize(cfg, tracker, truth, gain, draws)
        power = cfg.n * abs2(gains[:, :data])

        for j, k in enumerate(frames):
            out = tracker.step(obs[j])
            x_hat = tracker.state.x

            # data transmission phase, in the first `data` trials: beamformed power toward x_hat
            p_r = abs2(combine(beamforming_weight(x_hat[:data], cfg), h_vec[j], noise[j])) / power[j]

            est = [detect_step(p, cfg, consecutive, i) for i, p in enumerate(p_r.tolist())]
            row = dict(u_true=truths[j, :, 0], v_true=truths[j, :, 1], u_hat=x_hat[:, 0],
                       v_hat=x_hat[:, 1], err_norm=norm(truths[j] - x_hat),
                       err_norm_hat=[e.xi_hat for e in est], p_r=p_r,
                       detected=[e.detected for e in est], realigned=[e.realigned for e in est],
                       bound=out["bound"], innov_norm=out["innovation_norm"],
                       meas_valid=out["meas_valid"])
            for name, values in row.items():
                cols[name][k - 1, :len(values)] = values

            realigned = cols["realigned"][k - 1]
            if realigned.any():
                idx = np.flatnonzero(realigned)
                # frame k is recorded; from here on the realigned trials' truth is the residual
                truths[j, idx] = cfg.detect_residual * rngmod.trial_normals(
                    cfg.seed, [keys[i] for i in idx], [k], "realign", 2)[0]
                tracker.reinitialize(realigned, restart)
                # the rest of the chunk again, from the residual, with the same draws; on the
                # chunk's last frame the rest is empty, and the next chunk starts from truths[-1]
                rest = (slice(j + 1, None), idx)
                truths[rest], gains[rest], h_vec[rest], obs[rest], noise[rest] = _synthesize(
                    cfg, tracker, truths[j, idx], gains[j, idx], [d[rest] for d in draws])
        truth, gain = truths[-1], gains[-1]
    return cols


def _records(cols: dict[str, np.ndarray], i: int) -> list[FrameRecord]:
    """Trial i's FrameRecords from its batch's columns.  Their fields hold Python bool, int
    and float only: _fmt writes repr(x), which for a numpy scalar is not the number's text
    (np.float64(0.5)), and json cannot write an np.int64."""
    rows = zip(*(column[:, i].tolist() for column in cols.values()))
    return [FrameRecord(k, *row) for k, row in enumerate(rows, start=1)]


def run_batch(cfg: ScenarioConfig, trials, scheme: str | None = None) -> list[list[FrameRecord]]:
    """Simulate the given trials together, one or more indices in [0, 2**64); each trial's
    records are those it gives alone."""
    # the rng keys take an index modulo 2**64, so one outside would alias another trial
    trials = [operator.index(t) for t in trials]
    bad = [t for t in trials if not 0 <= t < 2**64]
    if bad or not trials:
        raise ValueError(f"trial indices must be one or more in [0, 2**64), got {bad or 'none'}")
    cols = _frames(_for_scheme(cfg, scheme), trials, len(trials))
    return [_records(cols, i) for i in range(len(trials))]


def run_trial(cfg: ScenarioConfig, trial_index: int, scheme: str | None = None) -> list[FrameRecord]:
    """Simulate one trial, a batch of one; deterministic given (cfg.seed, trial_index)."""
    return run_batch(cfg, [trial_index], scheme)[0]


@dataclass
class ExperimentSummary:
    scenario: dict
    per_frame_mse: list
    per_frame_bound: list
    detection_frames: list
    ledger: dict
    # trial 0's frame records, for the trace; not part of the summary JSON
    trace: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "per_frame_mse": self.per_frame_mse,
            "per_frame_bound": self.per_frame_bound,
            "detection_frames": self.detection_frames,
            "ledger": self.ledger,
        }


# a run gives each process at least this many trial-frames (a fork costs the same for every
# run, the work it moves grows with them).  Speedup of two processes over one on 2 cores for
# proposed, the lightest scheme, at 100/200/400/1000/2500 trial-frames each: fig9 0.50/0.53/
# 0.62/0.79/1.61 (detection off, so it loses below ~2,500), fig4a 0.95/1.03/0.92/1.41/1.58,
# fig6 8x16 0.97/1.10/1.25/1.57/1.65, 2-trial 0.94/1.09/1.13/1.22/1.16 (shard_crossover.py)
MIN_SHARD_TRIAL_FRAMES = 400
# the columns the summary folds; a trial block run in a child process returns only these
_FOLDED = ("err_norm", "bound", "realigned")


def shard_count(cores: int, environ, trials: int, frames: int) -> int:
    """Processes a run of `trials` trials of `frames` frames uses: one per BLAS thread group
    of the usable cores, each with a trial or more and MIN_SHARD_TRIAL_FRAMES trial-frames
    or more.  Without a BLAS thread count in the environment (OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS) BLAS may use every core, so one."""
    try:
        threads = int(environ.get("OPENBLAS_NUM_THREADS") or environ["OMP_NUM_THREADS"])
    except (KeyError, ValueError):
        return 1
    return (max(1, min(cores // threads, trials, trials * frames // MIN_SHARD_TRIAL_FRAMES))
            if threads > 0 else 1)


def run_experiment(cfg: ScenarioConfig, scheme: str | None = None) -> ExperimentSummary:
    """Run all trials and aggregate per-frame statistics.  The trials run in shard_count
    processes, and the summary and trace are the same bytes whatever the count."""
    cfg = _for_scheme(cfg, scheme)
    # sched_getaffinity is Linux's; elsewhere a run stays in one process
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return _experiment(cfg, shard_count(cores, os.environ, cfg.trials, cfg.frames))


def _experiment(cfg: ScenarioConfig, shards: int) -> ExperimentSummary:
    """run_experiment on `shards` contiguous blocks of trials: the first runs in this process
    and keeps trial 0's trace, each other in a forked child (_Child).  The summary sums the
    blocks' columns side by side, in trial order, so it equals one batch's."""
    blocks = [range(cfg.trials * i // shards, cfg.trials * (i + 1) // shards)
              for i in range(shards)]
    children: list[_Child] = []
    try:
        for block in blocks[1:]:
            children.append(_Child(cfg, block))
        first = _frames(cfg, blocks[0], 1)
        parts = [first] + [child.result() for child in children]
    finally:
        for child in children:
            child.stop()
    err_norm, bound, realigned = (np.concatenate([part[name] for part in parts], axis=1)
                                  for name in _FOLDED)
    finite = np.isfinite(bound)
    count = np.count_nonzero(finite, axis=-1)
    per_frame_bound = np.where(
        count > 0, ordered_sum(np.where(finite, bound, 0.0)) / np.maximum(count, 1), np.nan)
    return ExperimentSummary(
        scenario=cfg.to_dict(),
        per_frame_mse=(ordered_sum(np.float_power(err_norm, 2)) / cfg.trials).tolist(),
        per_frame_bound=[x if math.isfinite(x) else None for x in per_frame_bound.tolist()],
        detection_frames=(np.argwhere(realigned.T) + [0, 1]).tolist(),
        ledger=asdict(trial_ledger(cfg)),
        trace=_records(first, 0),
    )


class _Child:
    """A forked process that runs one block of trials and sends back its _FOLDED columns by
    name, as (frames, block) arrays, or the exception that stopped it."""

    def __init__(self, cfg: ScenarioConfig, block: range):
        import multiprocessing  # a serial run does not pay for the import

        ctx = multiprocessing.get_context("fork")
        self.block = block
        self.receiver, sender = ctx.Pipe(duplex=False)
        # the fork context flushes stdout first; a bare os.fork would copy its buffer
        self.process = ctx.Process(target=_child_main, args=(sender, cfg, block))
        self.process.start()
        sender.close()

    def result(self) -> dict[str, np.ndarray]:
        try:
            result = self.receiver.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(f"the process running trials {self.block.start} to "
                               f"{self.block.stop - 1} ended with exit code "
                               f"{self.process.exitcode} and no result") from None
        if isinstance(result, BaseException):
            raise result
        return result

    def stop(self) -> None:
        """End the process, wait for it, then close its pipe: a child still running when its
        pipe closes would fail to send.  One that has sent its result is only exiting."""
        self.process.terminate()
        self.process.join()
        self.receiver.close()


def _child_main(sender, cfg: ScenarioConfig, block: range) -> None:
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent stops its children
    try:
        cols = _frames(cfg, block, 0)
        result = {name: cols[name] for name in _FOLDED}
    except BaseException as exc:
        result = exc
    try:
        sender.send(result)
    except Exception as exc:  # an exception that does not pickle
        sender.send(RuntimeError(f"{type(result).__name__}: {result} ({exc})"))


def trial_ledger(cfg: ScenarioConfig, scheme: str | None = None) -> ComplexityLedger:
    """Per-trial complexity accounting without running the simulation."""
    cfg = _for_scheme(cfg, scheme)
    m, slots = TRACKERS[cfg.scheme].frame_cost(cfg.k_beams**2)
    return ComplexityLedger(m=m, pilot_slots=cfg.frames * slots, solve_cost=cfg.frames * m**3)


# output emission ----------------------------------------------------


def _fmt(x: float | int | bool) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    return repr(x)


def emit_trace(records: list[FrameRecord], path) -> None:
    """Write per-frame records as CSV, one column per FrameRecord field in order."""
    lines = [TRACE_COLUMNS]
    for r in records:
        lines.append(",".join(_fmt(v) for v in vars(r).values()))
    _write_text(path, "\n".join(lines) + "\n")


def emit_summary(summary: ExperimentSummary, path) -> None:
    """Write the aggregate summary as stable JSON."""
    _write_text(path, json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n")


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
