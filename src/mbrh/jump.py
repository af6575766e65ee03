"""Jump-matrix assembly for the conjugation problem.

The mixed problem's jump is built from K_pm = w_pm S_pm, the x-equation
Jost solutions times the reflection shears.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .broadening import mirror_unfold
from .errors import SingularK
from .mat2 import dagger, det2
from .spectral import (data_mirror, equation_steps, jost_phi, jost_w,
                       sorted_union, step_error, transition_and_reflection)

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


def spectral_data(scenario, profile, ev, x_out=(0.0,), step=None,
                  stages=None):
    """Scattering table and mixed-problem terminal data K_pm on x_out.

    ev is the `EtaValues` of the real nodes lam (`eta_boundary`), which a
    run evaluates once.  One t-equation solve (Phi at x = 0) and one
    stacked x-equation sweep for both banks (w_pm on x_out and x = 0).
    The table comes from w_pm(0), the shears S_pm from its reflection
    coefficients, and K_pm = w_pm S_pm: the x-equation is linear in its
    terminal data, so this is the solution with terminal value
    e^{i L eta_pm sigma_3} S_pm.  Returns (table, K+, K-) with K of shape
    (len(x_out), len(lam), 2, 2).  step is the Magnus step of both
    equations, each its own (`equation_steps`) when None; the table's
    diagnostics hold their `step_error` as step_err.  A `stages` dict
    receives the wall time of the two solves as jost_phi_s and jost_w_s,
    and that of the table with its step-error estimate as step_err_s.
    The scenario is validated here, once per run, on the nodes lam, not
    by the solves.

    When the data mirror under lam -> -lam (`data_mirror`), both solves
    and the step-error estimate take the nodes lam >= 0 alone, and Phi(0)
    and w_pm are unfolded onto all of lam by X(-lam) = conj X(lam) before
    the table is formed.  The table's diagnostics report the mismatch
    (mirror_err), the nodes solved (nodes_solved) and, on a run that took
    every node, why (full_axis; None on a folded run).
    """
    lam = ev.lam
    scenario.validate(lam)
    x_out = np.asarray(x_out, dtype=float)
    xs = sorted_union(x_out, [0.0])
    at, at0 = np.searchsorted(xs, x_out), np.searchsorted(xs, 0.0)
    t_step, x_step = equation_steps(step)
    mirror_err, why = data_mirror(scenario, ev, xs, t_step, x_step)
    n = lam.size
    h = n // 2 if why is None else 0        # the nodes h.. are solved
    marks = [time.perf_counter()]
    with np.errstate(over="ignore", invalid="ignore"):  # refused as not finite
        Phi0, _, _ = jost_phi(scenario, lam[h:], step=t_step)
        marks.append(time.perf_counter())
        _, wp, wm = jost_w(scenario, profile, ev, x_out=xs, step=x_step,
                           cols=slice(h, None))
        marks.append(time.perf_counter())
        if h:
            Phi0 = mirror_unfold(Phi0, n)
            wp, wm = mirror_unfold(wp, n, axis=1), mirror_unfold(wm, n, axis=1)
        table = transition_and_reflection(lam, Phi0, wp[at0], wm[at0])
    table.diagnostics.update(
        step_err=step_error(scenario, profile, ev, Phi0,
                            np.concatenate([wp[at0], wm[at0]]),
                            t_step, x_step, first=h),
        mirror_err=mirror_err, nodes_solved=n - h, full_axis=why)
    marks.append(time.perf_counter())
    if stages is not None:
        stages.update(zip(("jost_phi_s", "jost_w_s", "step_err_s"),
                          np.diff(marks).tolist()))
    Sp, Sm = shear_matrices(table.r_plus, table.r_bar_minus)
    return table, wp[at] @ Sp, wm[at] @ Sm


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
