"""Spectral data of the Lax pair from the physical data.

The boundary pulse E_in enters through the Jost solution of the t-equation
at x = 0; the initial data (E0, rho0) enter through the Jost solutions of
the two half-plane x-equations at t = 0.  Transition matrices between the
two give the scattering functions a, b and the reflection coefficients.

All integrations use a fixed-step 4th-order Magnus scheme (two Gauss nodes
per step, single commutator).  Its generators are traceless, so every
propagator has unit determinant to machine precision, which the downstream
jump-matrix certificates rely on.
"""

from dataclasses import dataclass, field

import numpy as np

from .broadening import LAM_WINDOW, eta_boundary, eta_eval
from .errors import (
    CountMismatch,
    DecayViolation,
    MediumNotAsymptotic,
    SpectralSingularity,
)
from .lax import U, V, medium_from_rho, medium_transform
from .mat2 import SIGMA3, det2, diag_exp, expm2, inv2

_GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0

DEFAULT_STEP = 0.01
SINGULAR_FLOOR = 1e-8       # |a| below this on the axis is a spectral singularity
NEWTON_TOL = 1e-10          # Newton step at which a zero of a counts as found


@dataclass(frozen=True)
class ScenarioData:
    """Physical data of the mixed problem on [0, T] x [0, L].

    E_in and E0 are vectorized callables (boundary pulse and initial field);
    rho0(x, lam) is the initial polarization table, or None for the
    unexcited medium.  The inversion N0 always takes the positive branch
    sqrt(1 - |rho0|^2).
    """

    T: float
    L: float
    E_in: object
    E0: object
    rho0: object = None

    @classmethod
    def trivial(cls, T=10.0, L=5.0):
        zero = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
        return cls(T=T, L=L, E_in=zero, E0=zero, rho0=None)

    @property
    def medium_is_trivial(self):
        return self.rho0 is None

    @property
    def field_free(self):
        """Unexcited medium and E0 = 0 on 2001 samples of [0, L]: the
        x-equation is then solved by plane waves."""
        x = np.linspace(0.0, self.L, 2001)
        return self.medium_is_trivial and np.max(np.abs(self.E0(x))) == 0.0

    def medium_slice(self, x, lam_grid):
        """Slice of the excited medium (rho0 not None) at depth x."""
        return medium_from_rho(lam_grid, np.asarray(self.rho0(x, lam_grid), complex))

    def validate(self):
        e = np.asarray(self.E_in(np.linspace(0.0, self.T, 2001)), complex)
        peak = np.max(np.abs(e))
        if peak > 0 and np.abs(e[-1]) > 1e-6 * peak:
            raise DecayViolation(
                f"boundary pulse at t=T is {abs(e[-1]):.2e}, above 1e-6 of peak")
        if self.rho0 is not None:
            lam = np.linspace(*LAM_WINDOW, 101)
            tail = np.max(np.abs(np.asarray(self.rho0(self.L, lam))))
            if tail > 1e-8:
                raise MediumNotAsymptotic(
                    f"initial polarization at x=L is {tail:.2e}")


@dataclass(frozen=True)
class SpectralTable:
    """Scattering functions on the real grid plus pole data."""

    lam_grid: np.ndarray
    a_plus: np.ndarray
    b_plus: np.ndarray
    a_bar_plus: np.ndarray
    b_bar_plus: np.ndarray
    a_bar_minus: np.ndarray
    b_bar_minus: np.ndarray
    a_minus: np.ndarray
    b_minus: np.ndarray
    r_plus: np.ndarray
    r_bar_minus: np.ndarray
    A: np.ndarray
    B: np.ndarray
    alpha_plus: np.ndarray
    beta_plus: np.ndarray
    alpha_minus: np.ndarray
    beta_minus: np.ndarray
    poles: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Magnus propagation
# ----------------------------------------------------------------------

def magnus_step(Afun, s1, h, U):
    """One 4th-order Magnus update from s1 to s1 + h (h of either sign)."""
    A1 = Afun(s1 + _GAUSS_C1 * h)
    A2 = Afun(s1 + _GAUSS_C2 * h)
    Om = (0.5 * h) * (A1 + A2) + (np.sqrt(3.0) / 12.0 * h * h) * (A2 @ A1 - A1 @ A2)
    return expm2(Om) @ U


def magnus_propagate(Afun, s_grid, terminal, keep="ends"):
    """Integrate dU/ds = A(s) U backward from s_grid[-1] to s_grid[0].

    terminal is U(s_grid[-1]) with shape (..., 2, k).  keep="all" returns
    the trajectory at every grid node (index aligned with s_grid),
    keep="ends" just U(s_grid[0]).
    """
    U = np.array(terminal, dtype=complex)
    if keep == "all":
        traj = np.empty((len(s_grid),) + U.shape, dtype=complex)
        traj[-1] = U
    for i in range(len(s_grid) - 1, 0, -1):
        h = s_grid[i - 1] - s_grid[i]
        U = magnus_step(Afun, s_grid[i], h, U)
        if keep == "all":
            traj[i - 1] = U
    return traj if keep == "all" else U


def _refined_grid(targets, step):
    """Uniform refinement of a target lattice so every target is a node."""
    targets = np.asarray(targets, dtype=float)
    pieces = [targets[:1]]
    for a, b in zip(targets[:-1], targets[1:]):
        k = max(1, int(np.ceil((b - a) / step)))
        pieces.append(np.linspace(a, b, k + 1)[1:])
    return np.concatenate(pieces)


def _t_generator(scenario, z, shift=0.0):
    """A(t) = U(z, E_in(t)) + shift I, with U(z, 0) + shift I built once
    (shift: the scalar rephasing of a continued column)."""
    free = U(z, 0.0) + np.multiply.outer(shift, np.eye(2))
    return lambda t: free + U(0.0, complex(scenario.E_in(t)))


def _x_generator(scenario, z, G, shift=0.0):
    """A(x) = V(z, E0(x), G) + shift I, with its z part built once.

    G is a constant (unexcited medium) or a function of x (the medium
    transform of the slice at depth x).
    """
    const, Gx = (0.0, G) if callable(G) else (G, lambda x: 0.0)
    free = V(z, 0.0, const) + np.multiply.outer(shift, np.eye(2))
    return lambda x: free + V(0.0, complex(scenario.E0(x)), Gx(x))


# ----------------------------------------------------------------------
# t-equation Jost solution at x = 0
# ----------------------------------------------------------------------

def jost_phi(scenario, lam_grid, step=DEFAULT_STEP):
    """Jost matrix of the t-equation at t = 0 for each real lam.

    Integrates backward from the plane-wave terminal value at t = T.
    Returns (Phi0, A, B) with A = Phi0[1,1], B = Phi0[0,1].
    """
    scenario.validate()
    lam = np.asarray(lam_grid, dtype=float)
    Phi0 = magnus_propagate(_t_generator(scenario, lam),
                            _refined_grid([0.0, scenario.T], step),
                            diag_exp(-1j * lam * scenario.T))
    return Phi0, Phi0[..., 1, 1], Phi0[..., 0, 1]


def phi_column_continuation(scenario, z, step=DEFAULT_STEP):
    """Analytic continuation of (A, B) to complex z (second Jost column).

    The rephased column v = Phi[:, 2] e^{-izt} obeys v' = (U - iz) v with
    v(T) = (0, 1); backward integration is contractive for Im z > 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    terminal = np.zeros(z.shape + (2, 1), dtype=complex)
    terminal[..., 1, 0] = 1.0
    v0 = magnus_propagate(_t_generator(scenario, z, -1j * z),
                          _refined_grid([0.0, scenario.T], step), terminal)
    return v0[..., 1, 0], v0[..., 0, 0]          # A(z), B(z)


# ----------------------------------------------------------------------
# x-equation Jost solutions at t = 0
# ----------------------------------------------------------------------

def xbank_propagate(scenario, profile, lam_grid, bank, terminal, x_out,
                    step=DEFAULT_STEP):
    """Backward-propagate the half-plane x-equation from x = L.

    terminal is the (Nlam, 2, 2) value at x = L; the trajectory is returned
    on x_out.  Shared by the Jost solve and the auxiliary terminal-data
    solve of the jump assembly.  An excited medium's transform is
    integrated on lam_grid itself.
    """
    lam = np.asarray(lam_grid, dtype=float)
    x_out = np.asarray(x_out, dtype=float)
    if scenario.medium_is_trivial:
        ev = eta_boundary(profile, lam)
        g = ev.g_plus if bank == "+" else ev.g_minus      # eta_pm = lam - g_pm
        if scenario.field_free:
            # exact solution: pure phase relative to the terminal data
            return diag_exp(1j * (x_out[:, None] - scenario.L) * (lam - g)) @ terminal
        G = g[:, None, None] * SIGMA3
    else:
        transform = medium_transform(profile, lam, lam, boundary=bank)
        G = lambda x: transform(scenario.medium_slice(x, lam))

    grid = _refined_grid(np.union1d(x_out, [0.0, scenario.L]), step)
    traj = magnus_propagate(_x_generator(scenario, lam, G), grid, terminal,
                            keep="all")
    return traj[np.searchsorted(grid, x_out)]


def jost_w(scenario, profile, lam_grid, bank="+", x_out=None,
           step=DEFAULT_STEP):
    """Jost matrix of the half-plane x-equation at t = 0 on an x lattice.

    Integrates backward from w(L) = e^{i L eta_pm sigma_3}.  Returns
    (x_out, w) with w of shape (len(x_out), len(lam), 2, 2).
    """
    scenario.validate()
    lam = np.asarray(lam_grid, dtype=float)
    if x_out is None:
        x_out = np.array([0.0, scenario.L])
    x_out = np.asarray(x_out, dtype=float)
    ev = eta_boundary(profile, lam)
    eta_b = ev.eta_plus if bank == "+" else ev.eta_minus
    terminal = diag_exp(1j * scenario.L * eta_b)
    return x_out, xbank_propagate(scenario, profile, lam, bank, terminal,
                                  x_out, step=step)


def wplus_column_continuation(scenario, profile, z, step=DEFAULT_STEP):
    """Continuation of (alpha, beta) to complex z (first column of w+).

    The rephased column u = w[:, 1] e^{-i eta(z) x} obeys
    u' = (V - i eta(z)) u with u(L) = (1, 0).  An excited medium is
    transformed on 401 nodes of LAM_WINDOW.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    eta_z = eta_eval(profile, z)
    if scenario.field_free:
        return np.ones(z.shape, complex), np.zeros(z.shape, complex)
    if scenario.medium_is_trivial:
        G = (z - eta_z)[:, None, None] * SIGMA3
    else:
        lam_med = np.linspace(*LAM_WINDOW, 401)
        transform = medium_transform(profile, lam_med, z)
        G = lambda x: transform(scenario.medium_slice(x, lam_med))

    terminal = np.zeros(z.shape + (2, 1), dtype=complex)
    terminal[..., 0, 0] = 1.0
    u0 = magnus_propagate(_x_generator(scenario, z, G, -1j * eta_z),
                          _refined_grid([0.0, scenario.L], step), terminal)
    return u0[..., 0, 0], u0[..., 1, 0]          # alpha(z), beta(z)


# ----------------------------------------------------------------------
# transition matrices and reflection coefficients
# ----------------------------------------------------------------------

def transition_and_reflection(lam_grid, Phi0, w_plus0, w_minus0):
    """Scattering table from T_pm = (w_pm(0))^{-1} Phi(0)."""
    lam = np.asarray(lam_grid, dtype=float)
    Tp = inv2(w_plus0) @ Phi0
    Tm = inv2(w_minus0) @ Phi0

    a_plus = Tp[..., 1, 1]
    if np.min(np.abs(a_plus)) < SINGULAR_FLOOR:
        k = int(np.argmin(np.abs(a_plus)))
        raise SpectralSingularity(
            f"a vanishes on the real axis near lam={lam[k]:.4f}")

    table = SpectralTable(
        lam_grid=lam,
        a_plus=a_plus,
        b_plus=Tp[..., 0, 1],
        a_bar_plus=Tp[..., 0, 0],
        b_bar_plus=-Tp[..., 1, 0],
        a_minus=Tm[..., 1, 1],
        b_minus=Tm[..., 0, 1],
        a_bar_minus=Tm[..., 0, 0],
        b_bar_minus=-Tm[..., 1, 0],
        r_plus=Tp[..., 0, 1] / a_plus,
        r_bar_minus=-Tm[..., 1, 0] / Tm[..., 0, 0],
        A=Phi0[..., 1, 1],
        B=Phi0[..., 0, 1],
        alpha_plus=w_plus0[..., 0, 0],
        beta_plus=w_plus0[..., 1, 0],
        alpha_minus=w_minus0[..., 0, 0],
        beta_minus=w_minus0[..., 1, 0],
        diagnostics={
            "det_Tp_err": float(np.max(np.abs(det2(Tp) - 1.0))),
            "det_Tm_err": float(np.max(np.abs(det2(Tm) - 1.0))),
            "reduction_err": float(np.max(np.abs(
                Tm[..., 1, 1] - np.conj(Tp[..., 0, 0])))),
        },
    )
    return table


# ----------------------------------------------------------------------
# zeros of the continued a(z) in the upper half-plane
# ----------------------------------------------------------------------

def continued_a(scenario, profile, z, step=DEFAULT_STEP):
    """a(z) = alpha(z) A(z) - beta(z) B(z) for Im z > 0."""
    A, B = phi_column_continuation(scenario, z, step=step)
    alpha, beta = wplus_column_continuation(scenario, profile, z, step=step)
    return alpha * A - beta * B


def _boundary_path(window, n_per_side):
    x0, x1, y0, y1 = window
    bottom = x0 + np.linspace(0, 1, n_per_side, endpoint=False) * (x1 - x0) + 1j * y0
    right = x1 + 1j * (y0 + np.linspace(0, 1, n_per_side, endpoint=False) * (y1 - y0))
    top = x1 - np.linspace(0, 1, n_per_side, endpoint=False) * (x1 - x0) + 1j * y1
    left = x0 + 1j * (y1 - np.linspace(0, 1, n_per_side, endpoint=False) * (y1 - y0))
    return np.concatenate([bottom, right, top, left])


def _winding(fvals_closed):
    """Winding number of a closed value sequence (last wraps to first)."""
    ratios = np.roll(fvals_closed, -1) / fvals_closed
    dargs = np.angle(ratios)
    if np.any(np.abs(dargs) > 0.9 * np.pi):
        return None                              # under-resolved
    return int(np.round(np.sum(dargs) / (2 * np.pi)))


def _winding_adaptive(afun, window, n0=32, max_pts=4096):
    n = n0
    while n <= max_pts:
        pts = _boundary_path(window, n)
        w = _winding(afun(pts))
        if w is not None:
            return w
        n *= 2
    raise CountMismatch("winding computation failed to resolve the boundary")


def locate_a_zeros(scenario, profile, window=(-5.0, 5.0, 1e-3, 5.0),
                   step=DEFAULT_STEP):
    """Zeros of the continued a(z) with residue constants, in a rectangle.

    Argument-principle count on the window, recursive subdivision down to
    isolated zeros, then Newton refinement with a central-difference
    derivative.  Attenuator profiles only (a is analytic in the upper
    half-plane there).  Raises CountMismatch when a Newton refinement
    does not converge inside the subwindow its zero was counted in.
    """
    if profile.sign > 0:
        raise ValueError("zero location applies to attenuator profiles")
    if window[2] < 1e-3:
        raise ValueError("window must keep a margin >= 1e-3 above the axis")

    afun = lambda zz: continued_a(scenario, profile, zz, step=step)
    total = _winding_adaptive(afun, window)
    zeros = []

    def _search(win, count):
        if count == 0:
            return
        x0, x1, y0, y1 = win
        if count == 1 or max(x1 - x0, y1 - y0) < 0.02:
            zeros.append(_newton_refine(afun, win, NEWTON_TOL))
            return
        if x1 - x0 >= y1 - y0:
            xm = 0.5 * (x0 + x1)
            sub = [(x0, xm, y0, y1), (xm, x1, y0, y1)]
        else:
            ym = 0.5 * (y0 + y1)
            sub = [(x0, x1, y0, ym), (x0, x1, ym, y1)]
        counts = [_winding_adaptive(afun, s) for s in sub]
        if sum(counts) != count:
            raise CountMismatch("subdivision winding counts do not add up")
        for s, c in zip(sub, counts):
            _search(s, c)

    _search(window, total)
    if len(zeros) != total:
        raise CountMismatch(f"found {len(zeros)} zeros but winding is {total}")

    poles = []
    for zj in zeros:
        hstep = 1e-5 * (1.0 + abs(zj))
        vals = afun(np.array([zj - hstep, zj + hstep]))
        adot = (vals[1] - vals[0]) / (2 * hstep)
        Aj, Bj = phi_column_continuation(scenario, zj, step=step)
        alj, _ = wplus_column_continuation(scenario, profile, zj, step=step)
        gamma = (Bj / alj)[0]
        poles.append((zj, gamma / adot))
    return poles


def _newton_refine(afun, win, tol, max_iter=60):
    """Newton from the centre of win; the root must converge inside win."""
    x0, x1, y0, y1 = win
    z = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    for _ in range(max_iter):
        hstep = 1e-5 * (1.0 + abs(z))
        vals = afun(np.array([z, z - hstep, z + hstep]))
        deriv = (vals[2] - vals[1]) / (2 * hstep)
        dz = vals[0] / deriv
        z = z - dz
        if abs(dz) < tol:
            if (x0 - tol <= z.real <= x1 + tol
                    and y0 - tol <= z.imag <= y1 + tol):
                return z
            raise CountMismatch(
                f"Newton root {z:.6g} lies outside its subwindow {win}")
    raise CountMismatch(
        f"Newton refinement in subwindow {win} did not converge "
        f"in {max_iter} steps (last iterate {z:.6g})")
