"""Per-layer call tracing for the benchmark's traced run.

Every traced name is also the path to what it wraps: ``rng.stream`` is the
function ``stream`` of ``beamtrack.rng`` and
``ekf.InnovationNoiseEstimator.push`` is a method of a class in
``beamtrack.ekf``.  A module-level function is replaced at every global of a
beamtrack module bound to it, because callers look names up there
(``harness`` does ``from .monopulse import extract_measurement``, so the
wrapper must replace ``beamtrack.harness.extract_measurement``).  A method is
replaced on its class.  ``uninstall`` puts every original back.

A wrapper records its call count and self time: the time inside the call
minus the time spent in the traced calls it made.  Some wrappers also count
outcomes read from return values and exceptions.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
from collections import Counter
from time import perf_counter

from beamtrack.errors import MeasurementFailure

BASELINE_SCHEMES = ("codebook", "abp")

# Traced calls; each gets `<name>.calls` and `<name>.self_s`.
TARGETS = (
    "rng.stream",
    "channel.channel_matrix",
    "channel.complex_noise",
    "channel.evolve_gain",
    "channel.beamforming_weight",
    "monopulse.extract_measurement",
    "ekf.predict",
    "ekf.update",
    "ekf.InnovationNoiseEstimator.estimate",
    "ekf.InnovationNoiseEstimator.push",
    "baselines.build_codebook",
    "baselines.CodebookTracker.step",
    "baselines.AbpTracker.step",
    "misalign.detect_step",
    "misalign.estimate_error_norm",
    "analysis.bound_step",
    "harness.ProposedTracker.step",
    "harness.run_trial",
    "harness.run_experiment",
    "harness.emit_trace",
    "harness.emit_summary",
    "cli.main",
)

# Derived per-layer metrics: name -> unit.
DERIVED = {
    "rng.streams_per_tf": "ratio",
    "monopulse.failures": "count",
    "monopulse.excluded_pairs": "count",
    "baselines.codebooks_per_trial": "ratio",
    "baselines.failures": "count",
    "misalign.realignments": "count",
    "harness.emit_bytes": "B",
    "harness.run_trial_per_op": "ratio",
    # traced over untraced tf_per_s on the same operations; set by the runner
    "tracing.tf_per_s_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "beamtrack" or n.startswith("beamtrack.")]


def snapshot() -> dict:
    """Every global of beamtrack's modules and every attribute of its classes."""
    snap = {}
    for mod in _modules():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("beamtrack"):
                for cattr, cval in vars(val).items():
                    snap[(mod.__name__, attr, cattr)] = cval
    return snap


def same_objects(before: dict, after: dict) -> bool:
    """Whether two snapshots hold the very same objects under the same names."""
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


class Tracer:
    """Installs the wrappers, accumulates their statistics, removes them."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.active = True
        self._child_s = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    # observers of results and exceptions ---------------------------------

    def _observe(self, name, args, kwargs, result):
        c = self.counts
        if name == "monopulse.extract_measurement":
            c["monopulse.excluded_pairs"] += result.excluded_pairs
        elif name in ("baselines.CodebookTracker.step", "baselines.AbpTracker.step"):
            c["baselines.failures"] += not result["meas_valid"]
        elif name == "misalign.detect_step":
            c["misalign.realignments"] += result.realigned
        elif name == "harness.run_trial":
            cfg = args[0]
            scheme = args[2] if len(args) > 2 else kwargs.get("scheme")
            c["trial_frames"] += cfg.frames
            c["baseline_trials"] += (scheme or cfg.scheme) in BASELINE_SCHEMES
        elif name in ("harness.emit_trace", "harness.emit_summary"):
            c["harness.emit_bytes"] += os.path.getsize(args[1])

    def _observe_error(self, name, exc):
        if name == "monopulse.extract_measurement" and isinstance(exc, MeasurementFailure):
            self.counts["monopulse.failures"] += 1

    # wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._child_s
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._observe_error(name, exc)
                raise
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stack[-1] += elapsed
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - child
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name in TARGETS:
            parts = name.split(".")
            module = importlib.import_module("beamtrack." + parts[0])
            if len(parts) == 3:
                owner = getattr(module, parts[1])
                original = vars(owner)[parts[2]]
                sites = [(owner, parts[2])]
            else:
                original = getattr(module, parts[1])
                sites = [
                    (mod, attr)
                    for mod in _modules()
                    for attr, val in vars(mod).items()
                    if val is original
                ]
            wrapper = self._wrap(name, original)
            for owner, attr in sites:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own calls into beamtrack without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics for `ops` traced operations."""
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        trials = self.calls["harness.run_trial"]
        out["rng.streams_per_tf"] = (
            self.calls["rng.stream"] / c["trial_frames"] if c["trial_frames"] else 0.0
        )
        out["monopulse.failures"] = c["monopulse.failures"]
        out["monopulse.excluded_pairs"] = c["monopulse.excluded_pairs"]
        out["baselines.codebooks_per_trial"] = (
            self.calls["baselines.build_codebook"] / c["baseline_trials"]
            if c["baseline_trials"]
            else 0.0
        )
        out["baselines.failures"] = c["baselines.failures"]
        out["misalign.realignments"] = c["misalign.realignments"]
        out["harness.emit_bytes"] = c["harness.emit_bytes"]
        out["harness.run_trial_per_op"] = trials / ops if ops else 0.0
        return out
