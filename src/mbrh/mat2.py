"""Small helpers for batched complex 2x2 matrices.

All functions accept arrays of shape (..., 2, 2) and broadcast.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def det2(a):
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def tr2(a):
    return a[..., 0, 0] + a[..., 1, 1]


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


def _sinhc(mu):
    """sinh(mu)/mu with a series fallback near 0."""
    out = np.ones_like(mu)
    small = np.abs(mu) < 1e-6
    mu_safe = np.where(small, 1.0, mu)
    out = np.where(small, 1.0 + mu * mu / 6.0, np.sinh(mu_safe) / mu_safe)
    return out


def expm2(m):
    """Matrix exponential of 2x2 blocks via the Cayley-Hamilton closed form."""
    s = 0.5 * tr2(m)
    m0 = m - s[..., None, None] * ID2
    # mu^2 = -det(m0); any branch of the square root works (even functions).
    mu = np.sqrt(-det2(m0) + 0j)
    cosh = np.cosh(mu)
    shc = _sinhc(mu)
    out = cosh[..., None, None] * ID2 + shc[..., None, None] * m0
    return np.exp(s)[..., None, None] * out


def diag_exp(phase):
    """exp(phase * sigma_3) as an array of diagonal 2x2 matrices."""
    phase = np.asarray(phase, dtype=complex)
    out = np.zeros(phase.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(phase)
    out[..., 1, 1] = np.exp(-phase)
    return out
