"""Scenario configuration, seeded Monte Carlo execution, and output emission.

A trial simulates frames of: truth evolution -> pilot snapshot ->
tracker step (predict/update; the proposed tracker also reports its MSE
bound) -> data-phase beamformed power -> misalignment detection (optional
realignment).  All schemes consume identical truth and noise streams per
(trial, frame), so scheme comparisons are paired.

run_experiment splits a run's trials into contiguous blocks, one per process
(shard_count: the usable cores over the BLAS threads, one process when no BLAS
thread count is set); the first block runs in the calling process, each other
in a forked child that sends back the columns the summary folds.  The trials
of a block advance together in one frame loop: truth, gain, estimate,
covariance, Q_n window, detector counters and measurement validity are arrays
with a leading trial axis, and run_trial is a batch of one.  Each frame step is
one call for the whole batch; each of its draws is one rng.TrialDraws, a
stream per trial.  Only the initial draws, the detector's table lookup and the
codebook's 2K^2 x 2K^2 update stay per trial.  A block builds one tracker,
which builds its own tables (the baselines' beam weights), so a config holds
none.

Same bytes when batching: a trial's records do not depend on the batch it runs
in, and equal those of the per-trial loop this replaced.  Each batched
operation rounds like the per-entry call (the primitives of beamtrack.arrays),
and sums over trials run in trial order (arrays.ordered_sum), continued from
block to block, so a run's bytes do not depend on its process count.  FrameRecord
fields and detection_frames hold Python bool, int and float only: _fmt writes
an np.bool_ or an np.int64 as 1.0, and json cannot write an np.int64.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import rng as rngmod
from .analysis import bound_step
from .arrays import abs2, norm, ordered_sum, vec
from .baselines import ABP_SQUINT_FACTOR, AbpTracker, CodebookTracker
from .channel import (beamformed_signal, beamforming_weight, channel_matrix, evolve_gain,
                      synthesize_rx)
from .ekf import (InnovationNoiseEstimator, TrackerState, initial_state, jacobian, predict, settle,
                  step_result, update)
from .errors import ConfigError
from .geometry import (
    angles_to_spatial,
    elevation_from_geometry,
    evolve_state,
    rotation_matrix,
)
from .misalign import detect_step, search_grid
from .monopulse import extract_measurement

SCHEMA_VERSION = 1

# value types each field annotation accepts; bool and int never stand in for each other
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}

_FLOAT_MAX = sys.float_info.max

# Per-field rules, read after the type check: a closed range (lo, hi[, why]), where a lower
# limit of +0.0 also rejects -0.0, or the tuple of allowed strings.  A float field without a
# row must be finite.  A rule that lives in a function the config probes has no row.
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
    "snr_reference": ("element", "array"),
    "q_n_mode": ("fixed", "estimated"),
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
    gain_innovation_var: float | None = 1e-4  # None -> literal 1 - rho^2/2
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
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, not one of {SCHEMES}")
        # without innovations the gain decays to zero and the received power with it; below
        # the smallest normal float |alpha|^2 underflows to zero all the same
        giv = self.gain_innovation_var
        if giv is not None and giv < sys.float_info.min and abs(self.rho_gain) < 1:
            raise ConfigError(
                "gain_innovation_var below the smallest normal float needs |rho_gain| = 1")
        # the pieces a run reads check their own values; build them now
        try:
            self.theta  # elevation_from_geometry rejects a height_ratio that is not positive
            # numpy describes no array of more bytes than an intp counts: the complex snapshot
            # (K^2 of them as a baseline's codebook weights), the float frames-long sums
            beams = 1 if self.scheme == "proposed" else self.k_beams**2
            if max(16 * beams * self.n, 8 * self.frames) > np.iinfo(np.intp).max:
                raise ValueError("n_x, n_y, codebook_k or frames size an array numpy cannot address")
            if not 0 < self.threshold <= search_grid(self.n_x)[1]:
                raise ValueError("detect_threshold must lie in (0, the search grid extent]")
            if not 0 < self.squint <= math.pi:
                raise ValueError("the ABP squint offset must lie in (0, pi]")
            InnovationNoiseEstimator(window=self.q_n_window)
            jacobian(np.zeros(2), self.jacobian_mode)
            angles_to_spatial(0.0, 0.0, self.d_over_lambda)
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


class ProposedTracker:
    """The monopulse-measurement EKF (the scheme under study)."""

    frame_cost = staticmethod(lambda k2: (2, 1))  # (measurement size, pilot slots) per frame

    def __init__(self, cfg: ScenarioConfig, state: TrackerState):
        self.cfg = cfg
        self.state = state
        self.q_n_prior = np.eye(2) * cfg.sigma_n_sq
        # floor the estimate at a tenth of the design prior: an estimate
        # near zero (transient-biased window) would saturate the gain and
        # inject raw measurement noise into the state
        self.estimator = InnovationNoiseEstimator(
            window=cfg.q_n_window, floor=cfg.sigma_n_sq / 10.0, batch=state.x.shape[:-1]
        )
        self.q_n_relaxed = np.eye(2) * cfg.sigma_nb_sq   # the bound's Q_n'

    def step(self, y: np.ndarray) -> dict:
        cfg = self.cfg
        p_prev = self.state.p
        pred = predict(self.state, cfg.f, cfg.q_p)
        meas = extract_measurement(y, cfg)
        g = jacobian(pred.x, cfg.jacobian_mode)
        if cfg.q_n_mode == "estimated":
            q_n = self.estimator.estimate(self.q_n_prior)
        else:
            q_n = self.q_n_prior
        new, innovation, k = update(pred, meas.r, g, q_n)
        self.state, innovation = settle(pred, new, innovation)
        self.estimator.push(innovation, g, pred.p)
        return step_result(innovation, bound_step(p_prev, k, g, cfg.f, cfg.q_p, self.q_n_relaxed))

    def reinitialize(self, mask: np.ndarray, state: TrackerState):
        """Restart the trials in mask from state, with an empty Q_n window."""
        self.state = state.where(mask, self.state)
        self.estimator.reset(mask)
        # a restarted window floors its estimate at the estimator's default, not the prior's
        # tenth; outputs since the first release depend on it
        self.estimator.floor[mask] = InnovationNoiseEstimator.floor


# every tracker is built as Tracker(cfg, state)
TRACKERS = {"proposed": ProposedTracker, "codebook": CodebookTracker, "abp": AbpTracker}
SCHEMES = tuple(TRACKERS)


def _for_scheme(cfg: ScenarioConfig, scheme: str | None) -> ScenarioConfig:
    """cfg, or its copy that runs another scheme, checked like any config."""
    return cfg if scheme in (None, cfg.scheme) else replace(cfg, scheme=scheme)


def _draws(cfg: ScenarioConfig, trials, frame: int, purpose: str) -> rngmod.TrialDraws:
    """A frame's normals for one purpose, a stream per trial: 2 per element for the pilot
    and data noise, 2 for the truth drift, the gain innovation and the realignment."""
    return rngmod.TrialDraws(cfg.seed, trials, frame, purpose,
                             2 * cfg.n if purpose in ("pilot", "data") else 2)


def _frames(cfg: ScenarioConfig, trials):
    """Simulate the trials as one batch; yield each frame's FrameRecord fields after
    `frame` by name, each a list with one value per trial."""
    try:
        x_hat0 = np.empty((len(trials), 2))
    except (ValueError, OverflowError) as exc:
        raise MemoryError(f"the batch of trials does not fit in an array: {exc}") from exc
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
    sigma = (cfg.sigma_u, cfg.sigma_v)

    for k in range(1, cfg.frames + 1):
        truth = evolve_state(truth, cfg.f, sigma, _draws(cfg, trials, k, "process"))
        gain = evolve_gain(gain, cfg.rho_gain, _draws(cfg, trials, k, "gain"),
                           cfg.gain_innovation_var)
        h = channel_matrix(gain, truth, cfg)
        y = synthesize_rx(h, cfg, _draws(cfg, trials, k, "pilot"))

        out = tracker.step(y)
        x_hat = tracker.state.x

        # data transmission phase: beamformed power toward the estimate
        w = beamforming_weight(x_hat, cfg)
        r_d = beamformed_signal(w, vec(h), cfg, _draws(cfg, trials, k, "data"))
        p_r = (abs2(r_d) / (cfg.n * abs2(gain))).tolist()

        est = [detect_step(p, cfg, consecutive, i) for i, p in enumerate(p_r)]
        realigned = [e.realigned for e in est]
        yield dict(u_true=truth[:, 0].tolist(), v_true=truth[:, 1].tolist(),
                   u_hat=x_hat[:, 0].tolist(), v_hat=x_hat[:, 1].tolist(),
                   err_norm=norm(truth - x_hat).tolist(), err_norm_hat=[e.xi_hat for e in est],
                   p_r=p_r, detected=[e.detected for e in est], realigned=realigned,
                   bound=out["bound"], innov_norm=out["innovation_norm"],
                   meas_valid=out["meas_valid"])

        if any(realigned):
            idx = np.flatnonzero(realigned)
            draws = _draws(cfg, [trials[i] for i in idx], k, "realign")
            truth[idx] = draws.normal(0.0, cfg.detect_residual, (len(idx), 2))
            tracker.reinitialize(np.array(realigned), restart)


def run_batch(cfg: ScenarioConfig, trials, scheme: str | None = None) -> list[list[FrameRecord]]:
    """Simulate the given trials together; each trial's records are those it gives alone."""
    cfg = _for_scheme(cfg, scheme)
    records = [[] for _ in trials]
    for k, columns in enumerate(_frames(cfg, trials), start=1):
        for rows, values in zip(records, zip(*columns.values())):
            rows.append(FrameRecord(k, **dict(zip(columns, values))))
    return records


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


# a run gives each process at least this many trials: fig9 proposed (the lightest scheme)
# ran 1.13-1.26x faster as two blocks of 8 than as one batch of 16, and 1.05x at 6
MIN_SHARD_TRIALS = 8
# the columns the summary folds; a trial block run in a child process returns only these
_FOLDED = ("err_norm", "bound", "realigned")


def shard_count(cores: int, environ, trials: int) -> int:
    """Processes a run of `trials` uses: one per BLAS thread group of the usable cores, each
    with MIN_SHARD_TRIALS trials or more.  Without a BLAS thread count in the environment
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS) BLAS may use every core, so one."""
    try:
        threads = int(environ.get("OPENBLAS_NUM_THREADS") or environ["OMP_NUM_THREADS"])
    except (KeyError, ValueError):
        return 1
    return max(1, min(cores // threads, trials // MIN_SHARD_TRIALS)) if threads > 0 else 1


def run_experiment(cfg: ScenarioConfig, scheme: str | None = None) -> ExperimentSummary:
    """Run all trials and aggregate per-frame statistics.  The trials run in shard_count
    processes, and the summary and trace are the same bytes whatever the count."""
    cfg = _for_scheme(cfg, scheme)
    # sched_getaffinity is Linux's; elsewhere a run stays in one process
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return _experiment(cfg, shard_count(cores, os.environ, cfg.trials))


def _experiment(cfg: ScenarioConfig, shards: int) -> ExperimentSummary:
    """run_experiment on `shards` contiguous blocks of trials: the first runs in this process
    and keeps trial 0's trace, each other in a forked child (_Child).  Each frame's sums
    continue their left fold block by block, in trial order, so they equal one batch's."""
    blocks = [range(cfg.trials * i // shards, cfg.trials * (i + 1) // shards)
              for i in range(shards)]
    sq_err, bound_sum = [0.0] * cfg.frames, [0.0] * cfg.frames
    bound_count = [0] * cfg.frames
    detections: list[list[int]] = []
    trace: list[FrameRecord] = []

    def fold(start: int, rows) -> None:
        for i, (err_norm, bound, realigned) in enumerate(rows):
            sq_err[i] = ordered_sum((e**2 for e in err_norm), sq_err[i])
            finite = [b for b in bound if math.isfinite(b)]
            bound_sum[i] = ordered_sum(finite, bound_sum[i])
            bound_count[i] += len(finite)
            detections.extend([start + t, i + 1] for t, r in enumerate(realigned) if r)

    def first_block():
        for k, columns in enumerate(_frames(cfg, blocks[0]), start=1):
            trace.append(FrameRecord(k, **{name: c[0] for name, c in columns.items()}))
            yield [columns[name] for name in _FOLDED]

    children: list[_Child] = []
    try:
        for block in blocks[1:]:
            children.append(_Child(cfg, block))
        fold(0, first_block())
        for child in children:
            fold(child.block.start, zip(*(a.tolist() for a in child.result())))
    finally:
        for child in children:
            child.stop()
    per_frame_mse = (np.array(sq_err) / cfg.trials).tolist()
    count = np.array(bound_count)
    per_frame_bound = np.where(count > 0, np.array(bound_sum) / np.maximum(count, 1), np.nan)
    return ExperimentSummary(
        scenario=cfg.to_dict(),
        per_frame_mse=per_frame_mse,
        per_frame_bound=[x if math.isfinite(x) else None for x in per_frame_bound],
        detection_frames=sorted(detections),
        ledger=asdict(trial_ledger(cfg)),
        trace=trace,
    )


class _Child:
    """A forked process that runs one block of trials and sends back its _FOLDED columns as
    (frames, block) arrays, or the exception that stopped it."""

    def __init__(self, cfg: ScenarioConfig, block: range):
        import multiprocessing  # a serial run does not pay for the import

        ctx = multiprocessing.get_context("fork")
        self.block = block
        self.receiver, sender = ctx.Pipe(duplex=False)
        # the fork context flushes stdout first; a bare os.fork would copy its buffer
        self.process = ctx.Process(target=_child_main, args=(sender, cfg, block))
        self.process.start()
        sender.close()

    def result(self) -> list[np.ndarray]:
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
        rows = [[columns[name] for name in _FOLDED] for columns in _frames(cfg, block)]
        result = [np.array(column) for column in zip(*rows)]
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
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


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
