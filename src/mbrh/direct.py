"""Method-of-lines integrator for the coupled field-medium system.

Independent verification oracle for the contour-based reconstruction.
The field equation is a unit-speed transport with the averaged medium
polarization as source, so the grid is characteristics-aligned
(dt = dx) and the source is the only quadrature.  The medium pair
(rho, N) evolves by an exact SU(2) rotation per step (`bloch_rotation`,
no matrix exponential, no scalar sin or cos) that preserves
N^2 + |rho|^2 to machine precision, checked on each new time slice.
The medium is one real workspace per run, rotated in place, and a step
rotates only the columns behind the causal front: a column with no
field and no polarization is a fixed point of the rotation and a
source of nothing.

Real field data on a line shape symmetric about resonance keep E real,
with rho(-lam) = conj rho(lam) and N(-lam) = N(lam): for such data the
step runs on the detunings lam >= 0 only, its source takes Re rho with
the folded weights w(lam) + w(-lam) and Im rho with none, and the final
slice is unfolded onto the full grid.  So the rotation there takes the
midpoint field as real, with no Omega_x terms, and the predictor forms
Re rho alone.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .broadening import average_weights, mirror_check, mirror_unfold
from .errors import CFLViolation, ConstraintDrift

STEP_TOL = 1e-10            # largest per-step change of N^2 + |rho|^2
DRIFT_TOL = 1e-6            # largest distance of N^2 + |rho|^2 from 1
SCRATCH = 7                 # work arrays of one in-place rotation
TINY = np.finfo(float).tiny
# (i, j, k) of the cross product (u x v)_i = u_j v_k - u_k v_j
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass
class FieldState:
    """Field samples on the (t, x) lattice and the medium at t = T.

    No medium history is kept: the medium at a fixed x depends only on
    E(., x), so any column can be rebuilt from E by the same rotations.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    lam_grid: np.ndarray
    E: np.ndarray               # (Nt, Nx) complex
    rho: np.ndarray             # (Nx, Nlam) complex, final slice
    N: np.ndarray               # (Nx, Nlam) real, final slice
    diagnostics: dict = field(default_factory=dict)


def bloch_rotation(E_mid, lam, h, rho, N, out, work):
    """Advance (rho, N) over one step with the field frozen at midpoint.

    The pair evolves by conjugation of F = [[N, rho], [conj rho, -N]]
    with R = exp(h A), A = -i lam sigma3 - H(E_mid).  A is traceless
    anti-Hermitian with A^2 = -w^2 I, w = sqrt(lam^2 + |E|^2/4), so
    R = cos(hw) + (sin(hw)/w) A turns the Bloch vector
    r = (Re rho, Im rho, N) by 2hw about Omega = (-Im E/2, Re E/2, -lam):
    r' = r + 2cs Omega x r + 2s^2 Omega x (Omega x r), s = sin(hw)/w,
    with c = cos(hw) = (1 - t^2)/(1 + t^2), sin(hw) = 2t/(1 + t^2) and
    t = tan(hw/2), for every hw.  At w = 0 the identity is exact.

    rho is the real pair (Re rho, Im rho) and N is real, each (m, Nlam)
    or broadcasting to it against E_mid (one value per row) and lam.  A
    real E_mid has no Omega_x: the terms of that component are left out,
    not formed as zeros.  It writes (Re rho', Im rho', N') into the
    arrays out, which may be the inputs (a None output is not formed),
    using SCRATCH work arrays.
    """
    E = np.asarray(E_mid)
    lam = np.asarray(lam, dtype=float)
    E = E[..., None] if E.ndim else E                # per x, against lam
    cplx = np.iscomplexobj(E)
    s, cs, acc, tmp, *P = work
    E2 = E.real ** 2 + E.imag ** 2 if cplx else E * E
    np.sqrt(np.add(lam * lam, 0.25 * E2, out=acc), out=acc)     # w
    np.tan(np.multiply(acc, 0.5 * h, out=s), out=s)
    np.multiply(s, s, out=cs)
    cs += 1.0
    np.divide(2.0, cs, out=cs)                       # 2/(1 + t^2)
    s *= cs                                          # sin(hw)
    cs -= 1.0                                        # cos(hw)
    np.maximum(acc, TINY, out=acc)                   # w = 0: s = 0
    s /= acc
    cs *= s
    s *= s
    # with P = 2 Omega x r the step is r' = r + cs P + s^2 Omega x P;
    # a = 2 Omega and b = Omega, None where a component is absent
    r = (*rho, N)
    a = (-E.imag if cplx else None, E.real, -2.0 * lam)
    b = (0.5 * a[0] if cplx else None, 0.5 * a[1], -lam)
    for i, j, k in CYCLIC:
        _cross(a[j], r[k], a[k], r[j], P[i], tmp)
    for i, j, k in CYCLIC:
        if out[i] is not None:
            _cross(b[j], P[k], b[k], P[j], acc, tmp)
            acc *= s
            acc += np.multiply(cs, P[i], out=tmp)
            np.add(r[i], acc, out=out[i])


def _cross(u, p, v, q, out, tmp):
    """out = u p - v q, without the term whose coefficient (u or v) is
    None."""
    if u is None:
        np.multiply(-v, q, out=out)
    else:
        np.multiply(u, p, out=out)
        if v is not None:
            out -= np.multiply(v, q, out=tmp)


def _sphere(B, out, tmp):
    """N^2 + |rho|^2 from the Bloch components B = (Re rho, Im rho, N)."""
    np.multiply(B[0], B[0], out=out)
    for c in B[1:]:
        out += np.multiply(c, c, out=tmp)


def _mirror(lam, w, E, B):
    """`mirror_check` of the run's data: the grid against max|lam|, the
    weights against sum|w|, E on the boundary row and column real against
    their sup|E|, and the initial Bloch vectors B = (Re rho, Im rho, N)
    (None: the medium at rest) against (Re rho, -Im rho, N) mirrored
    over max|rho|."""
    edges = np.concatenate((E[:, 0], E[0]))
    pairs = [(lam, -1.0, np.max(np.abs(lam))), (w, 1.0, np.sum(np.abs(w)))]
    if B is not None:
        pairs.append((B, np.array([1.0, -1.0, 1.0])[:, None, None],
                      np.max(np.hypot(B[0], B[1]))))
    return mirror_check(pairs, real=[(edges, np.max(np.abs(edges)))])


def integrate_direct(scenario, profile, lam_grid, dt) -> FieldState:
    """Advance the coupled system on a characteristics-aligned lattice.

    dt is used for both directions (dx = dt) and must divide the scenario
    horizon T and depth L.  Step k rotates the columns up to j0 + k + 1,
    j0 the last column the initial data excite.  It runs on the
    detunings lam >= 0 alone when the data mirror under lam -> -lam
    (`_mirror`: mismatch at most MIRROR_TOL, E on the boundary row and
    column exactly real), and returns the medium on the full grid.  The
    diagnostics hold the largest per-step change of N^2 + |rho|^2
    (refused above STEP_TOL), its largest distance from 1 over all
    slices (refused above DRIFT_TOL; a NaN fails both tests), the
    lattice sizes (steps, nx and nlam points), the detunings stepped
    (nlam_solved), the mirror mismatch (mirror_err), the cells rotated
    (of steps * nx * nlam_solved), the stage times, and the largest
    detuning spacing over pi/T: the polarization oscillates like
    e^{-2 i lam t}, period pi/T in lam.
    """
    start = time.perf_counter()
    lam = np.asarray(lam_grid, dtype=float)
    T, L = scenario.T, scenario.L
    nt = int(round(T / dt))
    nx = int(round(L / dt))
    if abs(nt * dt - T) > 1e-9 * max(1.0, T) or \
            abs(nx * dt - L) > 1e-9 * max(1.0, L):
        raise CFLViolation("dt must divide both T and L "
                           "(characteristics-aligned lattice)")
    t_grid = np.arange(nt + 1) * dt
    x_grid = np.arange(nx + 1) * dt
    w = average_weights(profile, lam)

    E = np.zeros((nt + 1, nx + 1), dtype=complex)
    E[0, :] = np.asarray(scenario.E0(x_grid), dtype=complex)
    E[:, 0] = np.asarray(scenario.E_in(t_grid), dtype=complex)
    B0 = None
    if scenario.rho0 is not None:
        sl = scenario.medium_slice(x_grid, lam)
        B0 = np.stack([sl.rho.real, sl.rho.imag, sl.N])
    mirror_err, why = _mirror(lam, w, E, B0)
    fold = why is None
    # the step runs on nodes h.. (all, or the half lam >= 0 of an
    # ascending grid); node i mirrors node n - 1 - i
    n = lam.size
    h = n // 2 if fold else 0
    w_re = w[h:]                                   # weights of Re rho
    if fold:                                       # and of Im rho: none
        w_re = w_re.copy()
        w_re[n % 2:] += w[:h][::-1]                # a node at 0 counts once

    def average(Bv):
        """<rho> from the Bloch components Bv; real on a fold."""
        avg = Bv[0] @ w_re
        return avg if fold else avg + 1j * (Bv[1] @ w_re)

    lam_s = lam[h:]
    # Bloch vector, predictor (Re, Im), N^2 + |rho|^2 of two slices, work
    ws = np.zeros((7 + SCRATCH, nx + 1, lam_s.size))
    B, pred, sphere, work = ws[:3], ws[3:5], ws[5:7], ws[7:]
    if B0 is None:
        B[2] = 1.0
    else:
        B[:] = B0[..., h:]
    _sphere(B, sphere[0], sphere[1])
    sphere[1] = sphere[0]
    excited = np.flatnonzero((E[0] != 0) | np.any(B[:2] != 0, axis=(0, 2)))
    j0 = int(excited[-1]) if excited.size else 0

    total = max(float(sphere[0].max()) - 1.0, 1.0 - float(sphere[0].min()))
    max_step_drift, rotated = 0.0, 0
    loop_start = time.perf_counter()
    for k in range(nt):
        m = min(j0 + k + 2, nx + 1)                # columns behind the front
        Bm, Pm, Wm = B[:, :m], pred[:, :m], work[:, :m]
        Ek, Ek1 = E[k, :m], E[k + 1, :m]
        avg0 = average(Bm)
        # predictor: transport Euler along the x - t characteristic
        Ep = np.concatenate((Ek1[:1], Ek[:-1] + dt * avg0[:-1]))
        # predictor polarization with midpoint-frozen field; a fold
        # forms Re rho' alone, as the source reads nothing else
        mid = 0.5 * (Ek + Ep)
        bloch_rotation(mid.real if fold else mid, lam_s, dt, Bm[:2], Bm[2],
                       out=(Pm[0], None if fold else Pm[1], None), work=Wm)
        avg1 = average(Pm)
        # corrector: trapezoid of the source along the characteristic
        Ek1[1:] = Ek[:-1] + 0.5 * dt * (avg0[:-1] + avg1[1:])
        # final medium rotation with the corrected midpoint field
        mid = 0.5 * (Ek + Ek1)
        bloch_rotation(mid.real if fold else mid, lam_s, dt, Bm[:2], Bm[2],
                       out=Bm, work=Wm)
        rotated += m
        old, new = sphere[k % 2, :m], sphere[(k + 1) % 2, :m]
        _sphere(Bm, new, Wm[0])
        drift = np.abs(np.subtract(new, old, out=Wm[0]), out=Wm[0]).max()
        max_step_drift = max(max_step_drift, float(drift))
        if not drift <= STEP_TOL:
            raise ConstraintDrift(
                f"per-step sphere drift {drift:.3e} at t={t_grid[k + 1]:.4f}")
        total = max(total, float(new.max()) - 1.0, 1.0 - float(new.min()))

    if not total <= DRIFT_TOL:
        raise ConstraintDrift(f"cumulative sphere drift {total:.3e}")
    rho, N = B[0] + 1j * B[1], B[2].copy()
    if fold:                                       # unfold onto the full grid
        rho, N = mirror_unfold(rho, n, axis=1), mirror_unfold(N, n, axis=1)
    spacing = float(np.max(np.diff(lam))) if lam.size > 1 else 0.0
    diagnostics = {"max_step_drift": max_step_drift,
                   "conservation_error": total,
                   "steps": nt, "nx": x_grid.size, "nlam": n,
                   "nlam_solved": lam_s.size, "mirror_err": mirror_err,
                   "rotated_cells": rotated * lam_s.size,
                   "lam_spacing_over_pi_T": spacing * T / np.pi,
                   "stages": {"setup_s": loop_start - start,
                              "step_loop_s": time.perf_counter() - loop_start}}
    return FieldState(t_grid=t_grid, x_grid=x_grid, lam_grid=lam,
                      E=E, rho=rho, N=N,
                      diagnostics=diagnostics)
