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
    """Per-node jump matrices with their (t, x) stamp."""

    t: float
    x: float
    nodes: np.ndarray           # contour nodes, real on the axis
    J: np.ndarray               # (N, 2, 2)
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
    """Mixed-problem jump J = e^{-i(lam t - x eta+) s3} K+^{-1} K- e^{i(lam t - x eta-) s3}.

    ev holds eta_pm on the nodes lam (`eta_boundary`), which a run
    evaluates once for all its stamps.  J0 = K+^{-1} K- and the phase
    conjugation are formed entry by entry: J_ab = l_a J0_ab r_b with
    l = e^{-+i(lam t - x eta+)} and r = e^{+-i(lam t - x eta-)}.
    """
    lam = ev.lam
    for name, K in (("K+", K_plus), ("K-", K_minus)):
        err = np.max(np.abs(det2(K) - 1.0))
        if not err <= DET_TOL:      # a NaN is refused too
            raise SingularK(f"det {name} deviates from 1 by {err:.2e}")
    (a, b, c, d), k = K_plus.reshape(-1, 4).T, K_minus.reshape(-1, 4).T
    # adj(K+) K- / det K+, row-major entries
    J0 = np.stack([d * k[0] - b * k[2], d * k[1] - b * k[3],
                   a * k[2] - c * k[0], a * k[3] - c * k[1]],
                  axis=-1) / (a * d - b * c)[:, None]
    l0 = np.exp(-1j * (lam * t - x * ev.eta_plus))
    r0 = np.exp(1j * (lam * t - x * ev.eta_minus))
    l1, r1 = 1.0 / l0, 1.0 / r0
    J = (J0 * np.stack([l0 * r0, l0 * r1, l1 * r0, l1 * r1], axis=-1)).reshape(-1, 2, 2)
    det_J0 = J0[:, 0] * J0[:, 3] - J0[:, 1] * J0[:, 2]
    return JumpData(t=float(t), x=float(x), nodes=lam, J=J,
                    diagnostics={"J0_det_err": float(np.max(np.abs(det_J0 - 1.0)))})


def posdef_check(jd: JumpData):
    """Smallest eigenvalue of the Hermitian part over the (real) nodes."""
    H = 0.5 * (jd.J + dagger(jd.J))
    mean = 0.5 * (H[..., 0, 0] + H[..., 1, 1]).real
    rad = np.sqrt((0.5 * (H[..., 0, 0] - H[..., 1, 1]).real) ** 2
                  + np.abs(H[..., 0, 1]) ** 2)
    return float(np.min(mean - rad))
