"""Machine-speed reference for the timed runs.

The shared host this benchmark was written on changes speed by 20-60% over
seconds to minutes, in both cores at once, so wall-clock throughput of
the same code spread by about a fifth between runs.  A fixed kernel that does
not use beamtrack but does the same kind of work (Philox generators, normal
draws and elementwise arithmetic on small complex arrays, a 2x2 solve,
Python-level looping) is timed between operations, for about a fifth of
the time of the operation before it.  Its time over ``NOMINAL_S``, averaged
over the runs on both sides of an operation, is the host's slowdown during
that operation; dividing it out gives throughput per
reference-second, which spread about a quarter as much.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One reference-second is the kernel's time divided by this: roughly its time
# on the 2-core VM this was written on, in a quiet spell.
NOMINAL_S = 0.012
SHARE = 0.2

_A = np.exp(-1j * 0.3 * np.arange(8))                                   # steering vector
_W = np.exp(-1j * 0.1 * np.outer(np.arange(64), np.arange(64))) / 8.0   # 64 beams
_M = 3.0 * np.eye(128) + 0.01                                           # 128x128 covariance
_S = 2.1 * np.eye(2)


def kernel() -> float:
    """Sixty frames' worth of the three trackers' kind of work."""
    acc = 0.0
    for i in range(60):
        g = np.random.Generator(np.random.Philox(key=(i, 2)))
        y = np.outer(_A, _A.conj()) + g.normal(0.0, 0.1, (8, 8)) + 1j * g.normal(0.0, 0.1, (8, 8))
        r = np.mean((y[:-1] - y[1:]) / (y[:-1] + y[1:]))
        acc += r.imag + np.linalg.solve(_S, y[0, :2].real)[0]
        for c in (0.1, -0.1, 0.2, -0.2):
            w = np.exp(-1j * c * np.arange(8)) / np.sqrt(8)
            acc += abs(np.vdot(w, y[0])) ** 2
        if i % 3 == 0:
            z = _W.conj().T @ y.ravel()
            zz = np.concatenate([z.real, z.imag])
            acc += np.linalg.solve(_M, np.stack([zz, zz], axis=1))[0, 0]
    return float(acc)


def slowdown(busy_s: float) -> float:
    """Run the kernel for about SHARE of `busy_s`; its mean time over NOMINAL_S."""
    n = max(1, round(SHARE * busy_s / NOMINAL_S))
    t0 = perf_counter()
    for _ in range(n):
        kernel()
    return (perf_counter() - t0) / n / NOMINAL_S
