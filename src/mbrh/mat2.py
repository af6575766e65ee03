"""Small helpers for batched complex 2x2 matrices.

All functions accept arrays of shape (..., 2, 2) and broadcast.
"""

import numpy as np

def det2(a):
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def inv2(a):
    """Explicit inverse; cheaper and more accurate than np.linalg.inv at 2x2."""
    d = det2(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out / d[..., None, None]


def diag_exp(phase):
    """exp(phase * sigma_3) as an array of diagonal 2x2 matrices."""
    phase = np.asarray(phase, dtype=complex)
    out = np.zeros(phase.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(phase)
    out[..., 1, 1] = np.exp(-phase)
    return out
