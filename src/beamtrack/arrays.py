"""Batched array primitives, each written once.

Each works on every entry of a stack (leading batch axes, one entry per trial) and
rounds exactly as the per-entry call its docstring names, so a trial's outputs do not
depend on the batch it runs in.  ordered_sum is the summary's one sum: a left fold in
order, which adds as the builtin sum does before Python 3.12.
"""

from __future__ import annotations

import numpy as np


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v of each matrix and vector of a stack, as np.matmul with a trailing unit axis;
    X @ F.T, einsum and gemm over stacked vectors round differently."""
    return (m @ v[..., None])[..., 0]


def vdot(a: np.ndarray, b: np.ndarray):
    """np.vdot(a, b) of each batch entry, a unit row times a column."""
    return matvec(a.conj()[..., None, :], b)[..., 0]


def norm(v: np.ndarray):
    """np.linalg.norm of each vector of a stack; np.linalg.norm(axis=...) rounds differently."""
    return np.sqrt(matvec(v[..., None, :], v)[..., 0])


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer(a, b) of each batch entry, shape (..., len_a, len_b)."""
    return a[..., :, None] * b[..., None, :]


def vec(a: np.ndarray) -> np.ndarray:
    """vec() of each matrix of a stack, row-major: a sum over its last axis is np.sum's.  An
    empty stack keeps its leading axes, shape (..., rows * columns)."""
    return a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def diag(v: np.ndarray) -> np.ndarray:
    """np.diag of each vector of a stack: zeros off the diagonal."""
    n = v.shape[-1]
    out = np.zeros(v.shape + (n,))
    out[..., range(n), range(n)] = v
    return out


def abs2(z):
    """|z|^2 of each entry, as abs(complex) ** 2 on a Python scalar; z**2 or np.abs on
    what was a Python scalar round differently."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def mean(a: np.ndarray):
    """np.mean over the last axis: its own sum and division, without its per-call overhead."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def ordered_sum(a):
    """Sum over the last axis, one left fold in order, as the builtin sum adds floats before
    Python 3.12; from 3.12 on the builtin compensates round-off, and np.sum adds pairwise."""
    return np.add.accumulate(a, axis=-1)[..., -1]
