"""Addressable random streams for order-independent Monte Carlo trials.

Every draw site is keyed by (seed, trial, frame, purpose) through a Philox
counter-based generator, so trials can run in any order (or in parallel)
and all tracking schemes see identical noise realizations per frame.  A
block of trials mixes each trial's half of the key once (trial_keys) and
draws each purpose of a chunk of frames, and each realignment residual, as
one array of standard normals (trial_normals), a stream per (frame, trial);
the steps that use them scale them.  Only the initial draw uses stream alone.
Both re-key one Philox generator from Python ints (_keyed), not build one each.
"""

from __future__ import annotations

import numpy as np

# Purpose tags; values are baked into stream keys, do not renumber.
PURPOSES = {
    "init": 1,        # per-trial azimuth draw and initial estimate error
    "process": 2,     # truth state drift
    "gain": 3,        # channel-gain Gauss-Markov innovation
    "pilot": 4,       # pilot-phase element noise
    "data": 5,        # data-phase element noise
    "realign": 6,     # post-realignment residual truth draw
}

_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; decorrelates structured key fields."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _trial_half(seed: int, trial: int) -> int:
    return _mix64(seed ^ _mix64(trial))


def _frame_half(seed: int, frame: int, tag: int) -> int:
    return _mix64((frame << 8) ^ tag ^ _mix64(seed + 0x5555))


def _philox_key(lo: int, hi: int):
    """The key Philox(key=(lo, hi)) builds: numpy makes the tuple float64, and so rounds
    both halves, when one half is below 2**63 and the other is not."""
    if lo >> 63 == hi >> 63:
        return lo, hi
    lo_f, hi_f = float(lo), float(hi)
    if max(lo_f, hi_f) < 2.0**64:
        return int(lo_f), int(hi_f)
    # 2**64 itself has no uint64 value; numpy's cast of it is the host's
    return np.asarray((lo, hi)).astype(np.uint64, casting="unsafe")


# a Philox stream is its key and counter, so re-keying draws what a new generator would
_GENERATOR = np.random.Generator(np.random.Philox(key=(0, 0)))
_ZEROS = (0, 0, 0, 0)  # the state setter reads Python ints faster than numpy uint64s
_STATE = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": (0, 0)},
          "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _keyed(lo: int, hi: int) -> np.random.Generator:
    _STATE["state"]["key"] = _philox_key(lo, hi)
    _GENERATOR.bit_generator.state = _STATE
    return _GENERATOR


def stream(seed: int, trial: int, frame: int, purpose: str) -> np.random.Generator:
    """Deterministic generator keyed by (seed, trial, frame, purpose): the module's one
    generator, re-keyed, so it is valid only until the next stream or trial_normals call
    (in any thread)."""
    return _keyed(_trial_half(seed, trial), _frame_half(seed, frame, PURPOSES[purpose]))


def trial_keys(seed: int, trials) -> list[int]:
    """Each trial's half of its streams' keys under seed, for trial_normals: a block of
    trials mixes them once, not once per frame."""
    return [_trial_half(seed, t) for t in trials]


def trial_normals(seed: int, keys, frames, purpose: str, count: int) -> np.ndarray:
    """The first `count` standard normals of the `purpose` stream of every frame of `frames`
    and every trial whose key half is in `keys` (trial_keys), shape (frames, trials, count):
    entry [j, i] is stream(seed, t, frames[j], purpose).standard_normal(count) for the trial
    t of keys[i]."""
    tag = PURPOSES[purpose]
    z = np.empty((len(frames), len(keys), count))
    for rows, frame in zip(z, frames):
        hi = _frame_half(seed, frame, tag)
        for row, lo in zip(rows, keys):
            _keyed(lo, hi).standard_normal(out=row)
    return z
