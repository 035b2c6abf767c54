"""Recursive mean-square-error upper bound for the tracking filter.

The bound propagates the filter's own covariance through the error
dynamics with a relaxed measurement covariance Q_n' > Q_n; the relaxation
absorbs the neglected linearization remainder.
"""

from __future__ import annotations

import numpy as np


def bound_step(
    p_prev: np.ndarray,
    k: np.ndarray,
    g: np.ndarray,
    f: np.ndarray,
    q_p: np.ndarray,
    q_n_relaxed: np.ndarray,
):
    """One-frame MSE bound Tr(A P A^T) + Tr(B Q_p B^T) + Tr(K Q_n' K^T)
    with A = (I - K G) F and B = (I - K G), for each entry of a batch."""
    b = np.eye(k.shape[-2]) - k @ g
    a = b @ f
    return (np.linalg.trace(a @ p_prev @ a.mT) + np.linalg.trace(b @ q_p @ b.mT)
            + np.linalg.trace(k @ q_n_relaxed @ k.mT))
