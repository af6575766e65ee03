"""Jump-matrix algebra of the conjugation problem.

The mixed problem's jump is built from K_pm = w_pm S_pm, the x-equation
Jost solutions times the reflection shears (`shear_matrices`), which
`pipeline.spectral_data` computes: J0 = K+^{-1} K- once per x column
(`jump_base`), then the jumps J (s, N, 2, 2) of a block of stamps by
their phases (`jump_phased`).  The stamp solver takes that array.
"""

import numpy as np

from .errors import SingularK
from .mat2 import det2

DET_TOL = 1e-5              # refuse K+- whose det deviates from 1 by more


def shear_matrices(r_plus, r_bar_minus):
    """Triangular factors S+ (upper, r+) and S- (lower, -conj-row r-bar)."""
    r_plus = np.asarray(r_plus, dtype=complex)
    r_bar_minus = np.asarray(r_bar_minus, dtype=complex)
    sp = np.zeros(r_plus.shape + (2, 2), dtype=complex)
    sp[..., 0, 0] = 1.0
    sp[..., 1, 1] = 1.0
    sm = sp.copy()
    sp[..., 0, 1] = r_plus
    sm[..., 1, 0] = -r_bar_minus
    return sp, sm


def det_err(J):
    """The largest |det J - 1| over 2x2 matrices J (..., 2, 2) or their
    row-major entries (..., 4), by the same products on both."""
    if J.shape[-1] == 4:
        J = J.reshape(J.shape[:-1] + (2, 2))
    return float(np.max(np.abs(det2(J) - 1.0)))


def jump_base(K_plus, K_minus):
    """(J0, errs): J0 = K+^{-1} K- entry by entry, as row-major
    entries (..., N, 4) for K+- of shape (..., N, 2, 2), and errs
    {"plus", "minus"}, the largest |det K+- - 1| (`det_err`).  K+-
    whose det deviates from 1 by more than DET_TOL anywhere are refused
    (`SingularK`)."""
    errs = {}
    for key, name, K in (("plus", "K+", K_plus), ("minus", "K-", K_minus)):
        errs[key] = det_err(K)
        if not errs[key] <= DET_TOL:    # a NaN is refused too
            raise SingularK(f"det {name} deviates from 1 by {errs[key]:.2e}")
    a, b, c, d = np.moveaxis(K_plus.reshape(K_plus.shape[:-2] + (4,)), -1, 0)
    k = np.moveaxis(K_minus.reshape(K_minus.shape[:-2] + (4,)), -1, 0)
    # adj(K+) K- / det K+, row-major entries
    J0 = np.stack([d * k[0] - b * k[2], d * k[1] - b * k[3],
                   a * k[2] - c * k[0], a * k[3] - c * k[1]],
                  axis=-1) / (a * d - b * c)[..., None]
    return J0, errs


def jump_phased(J0, t, x, ev):
    """The jumps J_ab = l_a J0_ab r_b, l = e^{-+i(lam t - x eta+)} and
    r = e^{+-i(lam t - x eta-)}, at the stamps (t, x): scalars, or 1-d
    arrays of one length s that broadcast with J0's leading axes, for a
    block of stamps (J of shape (s, N, 2, 2)).  ev holds eta_pm on the
    nodes lam (`eta_boundary`), which a run evaluates once for all its
    stamps."""
    lam = ev.lam
    tt = np.asarray(t, dtype=float)[..., None]
    xx = np.asarray(x, dtype=float)[..., None]
    l0 = np.exp(-1j * (lam * tt - xx * ev.eta_plus))
    r0 = np.exp(1j * (lam * tt - xx * ev.eta_minus))
    l1, r1 = 1.0 / l0, 1.0 / r0
    J = J0 * np.stack([l0 * r0, l0 * r1, l1 * r0, l1 * r1], axis=-1)
    return J.reshape(J.shape[:-1] + (2, 2))
