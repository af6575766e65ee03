"""Jump-matrix algebra of the conjugation problem.

The mixed problem's jump is built from K+ = w+ S+, the x-equation Jost
solution times the reflection shear (`shear_matrices`), which
`pipeline.spectral_data` computes.  On the real axis K- = (K+^{-1})^dagger
(w- = (w+^{-1})^dagger, r-bar- = conj r+), so J0 = K+^{-1} K- =
(K+^dagger K+)^{-1} is Hermitian positive definite: once per x column
(`jump_base`), then the jumps J = L J0 L^dagger (s, N, 2, 2) of a block
of stamps by their phases L (`jump_phased`).  The stamp solver takes
that array.
"""

import numpy as np

from .errors import SingularK
from .mat2 import det2

DET_TOL = 1e-5              # refuse K+ whose det deviates from 1 by more


def shear_matrices(r_plus):
    """The upper triangular shear S+ = [[1, r+], [0, 1]]."""
    sp = np.zeros(np.shape(r_plus) + (2, 2), dtype=complex)
    sp[..., 0, 0] = 1.0
    sp[..., 1, 1] = 1.0
    sp[..., 0, 1] = r_plus
    return sp


def det_err(J):
    """The largest |det J - 1| over 2x2 matrices J (..., 2, 2) or their
    row-major entries (..., 4), by the same products on both."""
    if J.shape[-1] == 4:
        J = J.reshape(J.shape[:-1] + (2, 2))
    return float(np.max(np.abs(det2(J) - 1.0)))


def jump_base(K_plus):
    """(J0, err): J0 = adj(P) / det P with P = K+^dagger K+, as row-major
    entries (..., N, 4) for K+ of shape (..., N, 2, 2), and err the
    largest |det K+ - 1| (`det_err`).  det P is taken as |det K+|^2,
    which rounds less than the difference of P's products.  K+ whose det
    deviates from 1 by more than DET_TOL anywhere is refused
    (`SingularK`)."""
    err = det_err(K_plus)
    if not err <= DET_TOL:          # a NaN is refused too
        raise SingularK(f"det K+ deviates from 1 by {err:.2e}")
    a, b, c, d = np.moveaxis(K_plus.reshape(K_plus.shape[:-2] + (4,)), -1, 0)
    # P = [[p00, p01], [conj p01, p11]], its diagonal real
    p00 = np.abs(a) ** 2 + np.abs(c) ** 2
    p11 = np.abs(b) ** 2 + np.abs(d) ** 2
    p01 = np.conj(a) * b + np.conj(c) * d
    det = np.abs(a * d - b * c) ** 2
    J0 = np.stack([p11, -p01, -np.conj(p01), p00], axis=-1) / det[..., None]
    return J0, err


def jump_phased(J0, t, x, ev):
    """The jumps J = L J0 L^dagger, L = e^{-i(lam t - x eta+) sigma_3}, at
    the stamps (t, x): scalars, or 1-d arrays of one length s that
    broadcast with J0's leading axes, for a block of stamps (J of shape
    (s, N, 2, 2)).  ev holds eta+ on the nodes lam (`eta_boundary`),
    which a run evaluates once for all its stamps."""
    tt = np.asarray(t, dtype=float)[..., None]
    xx = np.asarray(x, dtype=float)[..., None]
    l0 = np.exp(-1j * (ev.lam * tt - xx * ev.eta_plus))
    l1 = 1.0 / l0
    r0, r1 = np.conj(l0), np.conj(l1)
    J = J0 * np.stack([l0 * r0, l0 * r1, l1 * r0, l1 * r1], axis=-1)
    return J.reshape(J.shape[:-1] + (2, 2))
