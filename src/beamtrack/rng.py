"""Addressable random streams for order-independent Monte Carlo trials.

Every draw site is keyed by (seed, trial, frame, purpose) through a Philox
counter-based generator, so trials can run in any order (or in parallel)
and all tracking schemes see identical noise realizations per frame.
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


# a Philox stream is its key and counter, so re-keying draws what a new generator would
_GENERATOR = np.random.Generator(np.random.Philox(key=(0, 0)))
_ZEROS = np.zeros(4, dtype=np.uint64)


def stream(seed: int, trial: int, frame: int, purpose: str) -> np.random.Generator:
    """Deterministic generator keyed by (seed, trial, frame, purpose): the module's one
    generator, re-keyed, so it is valid only until the next stream call (in any thread)."""
    tag = PURPOSES[purpose]
    key_lo = _mix64(seed ^ _mix64(trial))
    key_hi = _mix64((frame << 8) ^ tag ^ _mix64(seed + 0x5555))
    # Philox(key=(lo, hi))'s own conversion, float64 for a tuple with a half >= 2**63
    key = np.asarray((key_lo, key_hi)).astype(np.uint64, casting="unsafe")
    _GENERATOR.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _GENERATOR
