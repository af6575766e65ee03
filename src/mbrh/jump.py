"""Jump-matrix assembly for the conjugation problem.

Three problem classes: the mixed problem (jump built from K_pm = w_pm S_pm,
the x-equation Jost solutions times the reflection shears), the
whole-line problem (explicit closed-form jump), and the amplifier oval
(jump from the continued scattering functions a, b on the Im eta = 0
curve).
"""

from dataclasses import dataclass, field

import numpy as np

from .broadening import eta_boundary
from .errors import RegularityViolation, SingularK
from .mat2 import dagger, det2, diag_exp, inv2
from .spectral import (
    DEFAULT_STEP,
    jost_phi,
    jost_w,
    transition_and_reflection,
    xbank_propagate,
)

DET_TOL = 1e-5              # refuse K+- whose det deviates from 1 by more


@dataclass(frozen=True)
class JumpData:
    """Per-node jump matrices with their (t, x) stamp."""

    problem_class: str          # mixed | whole-line | amplifier-oval
    t: float
    x: float
    nodes: np.ndarray           # complex contour nodes
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


def spectral_data(scenario, profile, lam, x_out=(0.0,), step=DEFAULT_STEP):
    """Scattering table and mixed-problem terminal data K_pm on x_out.

    One t-equation solve (Phi at x = 0) and one x-equation solve per bank
    (w_pm on x_out and x = 0).  The table comes from w_pm(0), the shears
    S_pm from its reflection coefficients, and K_pm = w_pm S_pm: the
    x-equation is linear in its terminal data, so this is the solution
    with terminal value e^{i L eta_pm sigma_3} S_pm.  Returns
    (table, K+, K-) with K of shape (len(x_out), len(lam), 2, 2).
    """
    lam = np.asarray(lam, dtype=float)
    x_out = np.asarray(x_out, dtype=float)
    xs = np.union1d(x_out, [0.0])
    at, at0 = np.searchsorted(xs, x_out), np.searchsorted(xs, 0.0)
    Phi0, _, _ = jost_phi(scenario, lam, step=step)
    _, wp = jost_w(scenario, profile, lam, bank="+", x_out=xs, step=step)
    _, wm = jost_w(scenario, profile, lam, bank="-", x_out=xs, step=step)
    table = transition_and_reflection(lam, Phi0, wp[at0], wm[at0])
    Sp, Sm = shear_matrices(table.r_plus, table.r_bar_minus)
    return table, wp[at] @ Sp, wm[at] @ Sm


def k_solve(scenario, profile, lam_grid, S, bank="+", x_out=None,
            step=DEFAULT_STEP):
    """Solve the x-equation with terminal value e^{i L eta_pm sigma_3} S.

    Independent reference for `spectral_data` (different terminal data,
    same discretization): by linearity it equals w_pm S.  The pipelines
    use `spectral_data`; tests compare the two.
    """
    lam = np.asarray(lam_grid, dtype=float)
    if x_out is None:
        x_out = np.array([0.0, scenario.L])
    ev = eta_boundary(profile, lam)
    eta_b = ev.eta_plus if bank == "+" else ev.eta_minus
    terminal = diag_exp(1j * scenario.L * eta_b) @ S
    return np.asarray(x_out, float), xbank_propagate(
        scenario, profile, lam, bank, terminal, x_out, step=step)


def jump_mixed(t, x, ev, K_plus, K_minus) -> JumpData:
    """Mixed-problem jump J = e^{-i(lam t - x eta+) s3} K+^{-1} K- e^{i(lam t - x eta-) s3}.

    ev holds eta_pm on the nodes lam (`eta_boundary`), which a run
    evaluates once for all its stamps.
    """
    lam = ev.lam
    for name, K in (("K+", K_plus), ("K-", K_minus)):
        err = np.max(np.abs(det2(K) - 1.0))
        if err > DET_TOL:
            raise SingularK(f"det {name} deviates from 1 by {err:.2e}")
    J0 = inv2(K_plus) @ K_minus
    left = diag_exp(-1j * (lam * t - x * ev.eta_plus))
    right = diag_exp(1j * (lam * t - x * ev.eta_minus))
    J = left @ J0 @ right
    return JumpData(problem_class="mixed", t=float(t), x=float(x),
                    nodes=lam.astype(complex), J=J,
                    diagnostics={"J0_det_err": float(np.max(np.abs(det2(J0) - 1.0)))})


def jump_wholeline(t, x, lam_grid, r_plus, profile) -> JumpData:
    """Explicit whole-line jump; unimodular by construction.

    The diagonal growth factor e^{2ix(eta+ - eta-)} = e^{pi n(lam) x} decays
    for attenuators, which is the transparency mechanism.
    """
    lam = np.asarray(lam_grid, dtype=float)
    r = np.asarray(r_plus, dtype=complex)
    ev = eta_boundary(profile, lam)
    grow = np.exp(2j * x * (ev.eta_plus - ev.eta_minus))
    J = np.empty(lam.shape + (2, 2), dtype=complex)
    J[..., 0, 0] = 1.0 + np.abs(r) ** 2 * grow
    J[..., 0, 1] = -r * np.exp(-2j * lam * t + 2j * x * ev.eta_plus)
    J[..., 1, 0] = -np.conj(r) * np.exp(2j * lam * t - 2j * x * ev.eta_minus)
    J[..., 1, 1] = 1.0
    return JumpData(problem_class="whole-line", t=float(t), x=float(x),
                    nodes=lam.astype(complex), J=J)


def jump_oval(z_nodes, a_vals, b_vals, t, x, eta_vals,
              floor=1e-8) -> JumpData:
    """Amplifier oval jump at off-axis nodes.

    For a node z in the upper half-plane a_vals/b_vals are the continued
    a(z), b(z); for a node in the lower half-plane they are the values at
    the reflected point z*, entering through the Schwartz-conjugate form.
    eta_vals are eta(z) at the nodes.
    """
    z = np.asarray(z_nodes, dtype=complex)
    a = np.asarray(a_vals, dtype=complex)
    b = np.asarray(b_vals, dtype=complex)
    if np.min(np.abs(a)) < floor or np.min(np.abs(b)) < floor:
        raise RegularityViolation("a or b vanishes on the oval contour")
    J0 = np.zeros(z.shape + (2, 2), dtype=complex)
    up = z.imag > 0
    J0[up, 0, 0] = 0.0
    J0[up, 0, 1] = -(b / a)[up]
    J0[up, 1, 0] = (a / b)[up]
    J0[up, 1, 1] = 1.0
    dn = ~up
    J0[dn, 0, 0] = 1.0
    J0[dn, 0, 1] = -(np.conj(a) / np.conj(b))[dn]
    J0[dn, 1, 0] = (np.conj(b) / np.conj(a))[dn]
    J0[dn, 1, 1] = 0.0
    theta = z * t - x * np.asarray(eta_vals, dtype=complex)
    J = diag_exp(-1j * theta) @ J0 @ diag_exp(1j * theta)
    return JumpData(problem_class="amplifier-oval", t=float(t), x=float(x),
                    nodes=z, J=J)


def posdef_check(jd: JumpData):
    """Smallest eigenvalue of the Hermitian part over the real-axis nodes."""
    mask = jd.nodes.imag == 0.0
    H = 0.5 * (jd.J[mask] + dagger(jd.J[mask]))
    mean = 0.5 * (H[..., 0, 0] + H[..., 1, 1]).real
    rad = np.sqrt((0.5 * (H[..., 0, 0] - H[..., 1, 1]).real) ** 2
                  + np.abs(H[..., 0, 1]) ** 2)
    return float(np.min(mean - rad))


def schwartz_error(jd: JumpData):
    """Max over conjugate node pairs of |J^{-1}(z) - J(z*)^dagger|."""
    z = jd.nodes
    up = np.nonzero(z.imag > 0)[0]
    if up.size == 0:
        return 0.0
    err = 0.0
    zc = np.conj(z)
    for i in up:
        j = np.argmin(np.abs(z - zc[i]))
        if abs(z[j] - zc[i]) > 1e-12:
            continue
        err = max(err, float(np.max(np.abs(
            inv2(jd.J[i]) - dagger(jd.J[j])))))
    return err
