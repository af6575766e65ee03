"""Jump-matrix algebra of the conjugation problem.

The mixed problem's jump is built from K_pm = w_pm S_pm, the x-equation
Jost solutions times the reflection shears (`shear_matrices`), which
`pipeline.spectral_data` computes; this module assembles the jump from
them and checks it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularK
from .mat2 import dagger, det2

DET_TOL = 1e-5              # refuse K+- whose det deviates from 1 by more


@dataclass(frozen=True)
class JumpData:
    """Per-node jump matrices with their (t, x) stamp: J (N, 2, 2), or
    (s, N, 2, 2) for a block of s stamps with t and x of length s."""

    t: float
    x: float
    nodes: np.ndarray           # contour nodes, real on the axis
    J: np.ndarray               # (N, 2, 2), or (s, N, 2, 2)
    diagnostics: dict = field(default_factory=dict)

    def det_error(self):
        return float(np.max(np.abs(det2(self.J) - 1.0)))


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


def jump_mixed(t, x, ev, K_plus, K_minus) -> JumpData:
    """Mixed-problem jump J = e^{-i(lam t - x eta+) s3} K+^{-1} K- e^{i(lam t - x eta-) s3}
    at one stamp: `jump_phased` of `jump_base`, with the largest
    |det J0 - 1| as J0_det_err."""
    J0, _ = jump_base(K_plus, K_minus)
    jd = jump_phased(J0, float(t), float(x), ev)
    jd.diagnostics["J0_det_err"] = j0_det_err(J0)
    return jd


def jump_base(K_plus, K_minus):
    """(J0, det_err): J0 = K+^{-1} K- entry by entry, as row-major
    entries (..., N, 4) for K+- of shape (..., N, 2, 2), and det_err
    {"plus", "minus"}, the largest |det K+- - 1|.  K+- whose det
    deviates from 1 by more than DET_TOL anywhere are refused
    (`SingularK`)."""
    det_err = {}
    for key, name, K in (("plus", "K+", K_plus), ("minus", "K-", K_minus)):
        err = float(np.max(np.abs(det2(K) - 1.0)))
        if not err <= DET_TOL:      # a NaN is refused too
            raise SingularK(f"det {name} deviates from 1 by {err:.2e}")
        det_err[key] = err
    a, b, c, d = np.moveaxis(K_plus.reshape(K_plus.shape[:-2] + (4,)), -1, 0)
    k = np.moveaxis(K_minus.reshape(K_minus.shape[:-2] + (4,)), -1, 0)
    # adj(K+) K- / det K+, row-major entries
    J0 = np.stack([d * k[0] - b * k[2], d * k[1] - b * k[3],
                   a * k[2] - c * k[0], a * k[3] - c * k[1]],
                  axis=-1) / (a * d - b * c)[..., None]
    return J0, det_err


def j0_det_err(J0):
    """The largest |det J0 - 1| over J0's row-major entries (..., N, 4)."""
    det = J0[..., 0] * J0[..., 3] - J0[..., 1] * J0[..., 2]
    return float(np.max(np.abs(det - 1.0)))


def jump_phased(J0, t, x, ev) -> JumpData:
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
    return JumpData(t=t, x=x, nodes=lam, J=J.reshape(J.shape[:-1] + (2, 2)))


def posdef_check(jd: JumpData):
    """Smallest eigenvalue of the Hermitian part over the (real) nodes:
    a float for one stamp, one per stamp (s,) for a block."""
    H = 0.5 * (jd.J + dagger(jd.J))
    mean = 0.5 * (H[..., 0, 0] + H[..., 1, 1]).real
    rad = np.sqrt((0.5 * (H[..., 0, 0] - H[..., 1, 1]).real) ** 2
                  + np.abs(H[..., 0, 1]) ** 2)
    low = np.min(mean - rad, axis=-1)
    return float(low) if low.ndim == 0 else low
