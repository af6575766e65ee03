"""Independent references and checks that more than one test file uses.

None of this runs in an `mb-rh` command: each function here is a second
route to a quantity the package computes (the Lax generators and the
Magnus propagation in matrix form and extended precision, the x-equation
from other terminal data, the medium term from one complex product per
channel and bank, eta by adaptive quadrature, the mixed jump by stacked matmuls, both
rows of the contour solve, the residue algebra as a real 4p-dimensional
map at one stamp, M off the contour, the medium from the solved
problem, the direct route as a plain loop), the whole-line and
amplifier-oval jumps whose identities the tests check, a check that
tests apply to its output, or the in-place Bloch rotation on fresh
arrays.
"""

import dataclasses

import numpy as np
from scipy.integrate import quad

from mbrh.broadening import (average_weights, cauchy_pwlin, eta_boundary,
                             eta_eval, pv_cauchy_pwlin)
from mbrh.cli import rho0_from_config
from mbrh.direct import SCRATCH, bloch_rotation
from mbrh.errors import (MBRHError, SingularK, SingularResidueSystem,
                         TooCloseToAxis)
from mbrh.jump import DET_TOL, JumpData
from mbrh.mat2 import dagger, det2, diag_exp, inv2
from mbrh.rhsolver import residue_constants, sie_solve, soliton_closed_form
from mbrh.spectral import X_STEP, ScenarioData, xbank_propagate

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_GAUSS = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
AXIS_FLOOR = 1e-8           # |Im z| below which the adaptive eta path refuses
EVAL_FLOOR = 2.0            # off-contour M within this many node spacings is refused


class StencilTooCoarse(MBRHError):
    """Finite-difference stencil has fewer than 3 points per direction."""


class TooCloseToContour(MBRHError):
    """Off-contour evaluation point within the node-spacing floor."""


class WeightVanishes(MBRHError):
    """n(lambda) too small for the medium-reconstruction jump formula."""


class RegularityViolation(MBRHError):
    """a or b vanishes on the oval contour."""


def trivial_scenario(T=10.0, L=5.0):
    """Zero pulse, zero initial field, unexcited medium."""
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
    return ScenarioData(T=T, L=L, E_in=zero, E0=zero, rho0=None)


def desk_scenario():
    """The desk scenario: T = 10, L = 5, a Gaussian boundary pulse of
    amplitude 0.8 at t = 3 (width 0.7), no initial field, empty medium."""
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
    E_in = lambda t: 0.8 * np.exp(-((np.asarray(t) - 3.0) / 0.7) ** 2) + 0j
    return ScenarioData(T=10.0, L=5.0, E_in=E_in, E0=zero, rho0=None)


def excited_scenario(complex_rho=False):
    """Desk pulse on L = 2 over an excited medium: an E0 bump and a rho0
    table, so the x-banks run the full Magnus path through the medium.
    complex_rho adds an `im` table off the real one: only then is the
    medium term g21, the conjugate of g12's p.v. part, not equal to it."""
    E_in = lambda t: 0.8 * np.exp(-((np.asarray(t) - 3.0) / 0.7) ** 2) + 0j
    E0 = lambda x: 0.3 * np.exp(-((np.asarray(x) - 1.0) / 0.3) ** 2) + 0j
    xg = np.linspace(0.0, 2.0, 41)
    lg = np.linspace(-8.0, 8.0, 65)
    bump = lambda x0, l0: np.exp(-((xg[:, None] - x0) / 0.25) ** 2
                                 - (lg[None, :] - l0) ** 2 / 2)
    table = {"x": xg.tolist(), "lam": lg.tolist(),
             "re": (0.3 * bump(0.7, 0.0)).tolist()}
    if complex_rho:
        table["im"] = (0.25 * bump(0.9, 1.0)).tolist()
    return ScenarioData(T=10.0, L=2.0, E_in=E_in, E0=E0,
                        rho0=rho0_from_config(table), rho0_x=tuple(xg))


def sigma2_conj(a):
    """sigma_2 A^* sigma_2, the antilinear reduction map of the AKNS system."""
    return SIGMA2 @ np.conj(a) @ SIGMA2


# ----------------------------------------------------------------------
# Lax generators and Magnus propagation in (..., 2, 2) matrix form
# ----------------------------------------------------------------------

def coupling_matrix(E):
    """Off-diagonal field coupling H = [[0, E/2], [-E*/2, 0]] (anti-Hermitian)."""
    E = np.asarray(E, dtype=complex)
    out = np.zeros(E.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = 0.5 * E
    out[..., 1, 0] = -0.5 * np.conj(E)
    return out


def U(z, E):
    """Generator of the t-equation, U = -i z sigma_3 - H(E)."""
    return -1j * np.asarray(z)[..., None, None] * SIGMA3 - coupling_matrix(E)


def medium_matrix(g):
    """G = [[g11, g12], [g21, -g11]] from the entries (g11, g12, g21)
    that `mbrh.lax.medium_transform` returns."""
    g11, g12, g21 = (np.asarray(e, dtype=complex) for e in g)
    out = np.empty(g11.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = g11
    out[..., 0, 1] = g12
    out[..., 1, 0] = g21
    out[..., 1, 1] = -g11
    return out


def V(z, E, G):
    """Generator of the x-equation, V = i z sigma_3 - i G + H(E), with G
    the medium term (2x2 per z, see `medium_matrix`)."""
    return (1j * np.asarray(z)[..., None, None] * SIGMA3 - 1j * np.asarray(G)
            + coupling_matrix(E))


def _sinhc(mu):
    """sinh(mu)/mu with a series fallback near 0."""
    small = np.abs(mu) < 1e-6
    mu_safe = np.where(small, 1.0, mu)
    return np.where(small, 1.0 + mu * mu / 6.0, np.sinh(mu_safe) / mu_safe)


def expm2(m):
    """Matrix exponential of 2x2 blocks via the Cayley-Hamilton closed form,
    in the precision of m."""
    s = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    m0 = m - s[..., None, None] * np.eye(2)
    # mu^2 = -det(m0); any branch of the square root works (even functions).
    mu = np.sqrt(-(m0[..., 0, 0] * m0[..., 1, 1] - m0[..., 0, 1] * m0[..., 1, 0])
                 + 0j)
    out = (np.cosh(mu)[..., None, None] * np.eye(2)
           + _sinhc(mu)[..., None, None] * m0)
    return np.exp(s)[..., None, None] * out


def magnus_step(Afun, s1, h, Y):
    """One 6th-order Magnus update of Y from s1 to s1 + h (h of either
    sign) in matrix form (Blanes, Casas, Oteo & Ros, Phys. Rep. 470
    (2009) 151, three Gauss nodes), in extended precision: the generator
    values stay double, Omega, the exponential and the product are formed
    in np.clongdouble."""
    A1, A2, A3 = (np.asarray(Afun(s1 + c * h), dtype=np.clongdouble)
                  for c in _GAUSS)
    h = np.longdouble(h)
    comm = lambda x, y: x @ y - y @ x
    al1 = h * A2
    al2 = np.sqrt(np.longdouble(15.0)) * h / 3 * (A3 - A1)
    al3 = 10 * h / 3 * (A3 - 2 * A2 + A1)
    C1 = comm(al1, al2)
    C2 = -comm(al1, 2 * al3 + C1) / 60
    Om = al1 + al3 / 12 + comm(-20 * al1 - al3 + C1, al2 + C2) / 240
    return expm2(Om) @ Y


def magnus_propagate(Afun, s_grid, terminal):
    """Integrate dY/ds = A(s) Y backward from s_grid[-1] to s_grid[0], one
    step and one generator evaluation per Gauss node at a time, in
    extended precision (`magnus_step`).  Returns the trajectory at every
    grid node (index aligned with s_grid), as np.clongdouble."""
    Y = np.array(terminal, dtype=np.clongdouble)
    traj = np.empty((len(s_grid),) + Y.shape, dtype=np.clongdouble)
    traj[-1] = Y
    for i in range(len(s_grid) - 1, 0, -1):
        Y = magnus_step(Afun, s_grid[i], s_grid[i - 1] - s_grid[i], Y)
        traj[i - 1] = Y
    return traj


def t_generator(scenario, z, shift=0.0):
    """A(t) = U(z, E_in(t)) + shift I, with U(z, 0) + shift I built once."""
    free = U(z, 0.0) + np.multiply.outer(shift, np.eye(2))
    return lambda t: free + U(0.0, complex(scenario.E_in(t)))


def x_generator(scenario, z, G, shift=0.0):
    """A(x) = V(z, E0(x), G) + shift I, with its z part built once.

    G is a constant (unexcited medium) or a function of x (the medium
    transform of the slice at depth x, as its three entries).
    """
    const, Gx = ((0.0, lambda x: medium_matrix(G(x))) if callable(G)
                 else (G, lambda x: 0.0))
    free = V(z, 0.0, const) + np.multiply.outer(shift, np.eye(2))
    return lambda x: free + V(0.0, complex(scenario.E0(x)), Gx(x))


# ----------------------------------------------------------------------
# line shape and x-equation
# ----------------------------------------------------------------------

def eta_quadrature(profile, z):
    """eta(z) = z - (1/4) int n(s)/(s - z) ds by adaptive quadrature: over
    the real line, or for a tabulated n panel by panel between its knots,
    where n has no kink."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zs.imag) < AXIS_FLOOR):
        raise TooCloseToAxis(
            f"|Im z| below quadrature floor {AXIS_FLOOR} for the adaptive path")
    edges = (profile.grid if profile.shape == "tabulated"
             else np.array([-np.inf, np.inf]))
    out = np.empty(zs.shape, dtype=complex)
    for k, zk in enumerate(zs.ravel()):
        fre = lambda s: (profile.n(s) / (s - zk)).real
        fim = lambda s: (profile.n(s) / (s - zk)).imag
        re = im = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            kw = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
            if np.isfinite(lo) and lo < zk.real < hi:
                kw["points"] = [zk.real]
            re += quad(fre, lo, hi, **kw)[0]
            im += quad(fim, lo, hi, **kw)[0]
        out.ravel()[k] = zk - 0.25 * (re + 1j * im)
    return out.reshape(np.shape(z)) if np.shape(z) else out[()]


def k_solve(scenario, profile, lam_grid, S_plus, S_minus, x_out=None,
            step=X_STEP):
    """Solve the x-equations with terminal values e^{i L eta_pm sigma_3} S_pm.

    Independent reference for `spectral_data` (different terminal data,
    same discretization): by linearity it equals w_pm S_pm.  Returns
    (x_out, K+, K-).
    """
    ev = eta_boundary(profile, lam_grid)
    if x_out is None:
        x_out = np.array([0.0, scenario.L])
    terminal = np.concatenate([diag_exp(1j * scenario.L * ev.eta_plus) @ S_plus,
                               diag_exp(1j * scenario.L * ev.eta_minus) @ S_minus])
    K = xbank_propagate(scenario, profile, ev, terminal, x_out, step=step)
    return np.asarray(x_out, float), K[:, :ev.lam.size], K[:, ev.lam.size:]


def medium_channels(slice_, nvals):
    """The complex channels (N - 1) n, rho n and rho* n of a medium slice."""
    return np.stack([(slice_.N - 1.0) * nvals + 0j, slice_.rho * nvals,
                     np.conj(slice_.rho) * nvals])


def medium_transform_offaxis(profile, grid, z, slice_):
    """Entries (g11, g12, g21) of G at complex z from one complex product
    per channel (`cauchy_pwlin`)."""
    c = 0.25 * cauchy_pwlin(grid, medium_channels(slice_, profile.n(grid)), z)
    return c[0] + z - eta_eval(profile, z), c[1], c[2]


def medium_transform_bank(profile, grid, ev, bank, slice_):
    """Entries (g11, g12, g21) of the medium term of one bank ("+" or "-")
    at the real points of ev: the p.v. transform of each complex channel
    (`pv_cauchy_pwlin`, grid ends tested per channel) plus the local term
    +-(pi i / 4) F(lam) n(lam), with F taken at lam by np.interp."""
    pv = 0.25 * pv_cauchy_pwlin(grid, medium_channels(slice_, profile.n(grid)),
                                ev.lam)
    sign, g = (1.0, ev.g_plus) if bank == "+" else (-1.0, ev.g_minus)
    at = lambda f: (np.interp(ev.lam, grid, f.real)
                    + 1j * np.interp(ev.lam, grid, f.imag))
    local = sign * 0.25j * np.pi * ev.n
    rho = np.array([at(r) for r in np.atleast_2d(slice_.rho)]).reshape(pv[1].shape)
    N = np.array([at(r) for r in np.atleast_2d(slice_.N)]).reshape(pv[0].shape)
    return (pv[0] + local * (N - 1.0) + g, pv[1] + local * rho,
            pv[2] + local * np.conj(rho))


# ----------------------------------------------------------------------
# whole-line and amplifier-oval jumps: the paper's other problem classes
# ----------------------------------------------------------------------

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
    return JumpData(t=float(t), x=float(x), nodes=lam, J=J)


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
    return JumpData(t=float(t), x=float(x), nodes=z, J=J)


def jump_mixed_reference(t, x, ev, K_plus, K_minus) -> JumpData:
    """`mbrh.jump.jump_mixed` by stacked 2x2 matmuls: J0 = K+^{-1} K- and
    J = e^{-i(lam t - x eta+) s3} J0 e^{i(lam t - x eta-) s3}."""
    lam = ev.lam
    for name, K in (("K+", K_plus), ("K-", K_minus)):
        err = np.max(np.abs(det2(K) - 1.0))
        if err > DET_TOL:
            raise SingularK(f"det {name} deviates from 1 by {err:.2e}")
    J0 = inv2(K_plus) @ K_minus
    left = diag_exp(-1j * (lam * t - x * ev.eta_plus))
    right = diag_exp(1j * (lam * t - x * ev.eta_minus))
    return JumpData(t=float(t), x=float(x),
                    nodes=lam, J=left @ J0 @ right,
                    diagnostics={"J0_det_err": float(np.max(np.abs(det2(J0) - 1.0)))})


# ----------------------------------------------------------------------
# direct route: medium columns and equation residuals
# ----------------------------------------------------------------------

def bloch_rotation_fresh(E_mid, lam, h, rho, N):
    """`mbrh.direct.bloch_rotation` on complex rho and real N, shapes
    broadcasting over (..., Nlam): the integrator's in-place rotation
    run on fresh arrays, returning the new (rho, N)."""
    E = np.asarray(E_mid, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    rho = np.asarray(rho, dtype=complex)
    shape = np.broadcast_shapes(E[..., None].shape if E.ndim else (),
                                lam.shape, rho.shape, np.shape(N))
    out = [np.empty(shape) for _ in range(3)]
    bloch_rotation(E, lam, h, (rho.real, rho.imag), np.asarray(N, float),
                   out=out, work=[np.empty(shape) for _ in range(SCRATCH)])
    return out[0] + 1j * out[1], out[2]


def cayley_klein_rotation(E_mid, lam, h, rho, N):
    """`mbrh.direct.bloch_rotation` in complex Cayley-Klein form: R is
    [[a, b], [-conj b, conj a]] with a = cos(hw) - i lam s, b = -E s/2,
    s = sin(hw)/w, and R F R^dagger is written out elementwise."""
    E_mid = np.asarray(E_mid, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    rho = np.asarray(rho, dtype=complex)
    N = np.asarray(N, dtype=float)
    if E_mid.ndim:
        E_mid = E_mid[..., None]
    w = np.sqrt(lam * lam + 0.25 * (E_mid.real ** 2 + E_mid.imag ** 2))
    hw = h * w
    s = h * np.sinc(hw / np.pi)         # sin(hw)/w, finite at w = 0
    a = np.cos(hw) - 1j * (lam * s)
    b = -0.5 * s * E_mid
    rho_new = a * a * rho - b * b * np.conj(rho) - 2.0 * a * b * N
    N_new = ((a.real ** 2 + a.imag ** 2 - b.real ** 2 - b.imag ** 2) * N
             + 2.0 * (a * np.conj(b) * rho).real)
    return rho_new, N_new


def integrate_direct_reference(scenario, profile, lam_grid, dt):
    """`mbrh.direct.integrate_direct` as a plain loop: complex medium,
    every column rotated on every step by `cayley_klein_rotation`, fresh
    arrays throughout.  Returns (E, rho, N, conservation error)."""
    lam = np.asarray(lam_grid, dtype=float)
    nt = int(round(scenario.T / dt))
    nx = int(round(scenario.L / dt))
    t_grid = np.arange(nt + 1) * dt
    x_grid = np.arange(nx + 1) * dt
    w = average_weights(profile, lam)
    E = np.zeros((nt + 1, nx + 1), dtype=complex)
    rho = np.zeros((nx + 1, lam.size), dtype=complex)
    N = np.ones((nx + 1, lam.size))
    E[0, :] = np.asarray(scenario.E0(x_grid), dtype=complex)
    E[:, 0] = np.asarray(scenario.E_in(t_grid), dtype=complex)
    if scenario.rho0 is not None:
        for j, xj in enumerate(x_grid):
            sl = scenario.medium_slice(xj, lam)
            rho[j] = sl.rho
            N[j] = sl.N
    total = float(np.max(np.abs(N ** 2 + np.abs(rho) ** 2 - 1.0)))
    for k in range(nt):
        Ek = E[k]
        avg0 = rho @ w
        Ep = np.empty_like(Ek)
        Ep[0] = E[k + 1, 0]
        Ep[1:] = Ek[:-1] + dt * avg0[:-1]
        rho_p, _ = cayley_klein_rotation(0.5 * (Ek + Ep), lam, dt, rho, N)
        avg1 = rho_p @ w
        E[k + 1, 1:] = Ek[:-1] + 0.5 * dt * (avg0[:-1] + avg1[1:])
        rho, N = cayley_klein_rotation(0.5 * (Ek + E[k + 1]), lam, dt, rho, N)
        total = max(total, float(np.max(np.abs(N ** 2 + np.abs(rho) ** 2 - 1.0))))
    return E, rho, N, total


def medium_history(scenario, st, ix=slice(None)):
    """(rho, N) on every time slice at the x columns ix (a slice or an
    index list) of a direct run, shapes (Nt, Nix, Nlam).

    The medium at a fixed x depends only on E(., x), so the columns are
    rebuilt from st.E by the integrator's own rotations, with the field
    frozen at each step midpoint.
    """
    lam, dt = st.lam_grid, st.t_grid[1] - st.t_grid[0]
    E, x = st.E[:, ix], st.x_grid[ix]
    rho = np.zeros((E.shape[0], x.size, lam.size), dtype=complex)
    N = np.ones((E.shape[0], x.size, lam.size))
    if scenario.rho0 is not None:
        for j, xj in enumerate(x):
            sl = scenario.medium_slice(xj, lam)
            rho[0, j] = sl.rho
            N[0, j] = sl.N
    for k in range(E.shape[0] - 1):
        rho[k + 1], N[k + 1] = bloch_rotation_fresh(
            0.5 * (E[k] + E[k + 1]), lam, dt, rho[k], N[k])
    return rho, N


def mb_residual(state, profile):
    """Sup-norms of centered finite-difference residuals of the three equations.

    state needs attributes t_grid, x_grid, lam_grid, E (t, x),
    rho (t, x, lam), N (t, x, lam).  Second-order interior stencils.
    """
    t, x, lam = state.t_grid, state.x_grid, state.lam_grid
    if t.size < 3 or x.size < 3:
        raise StencilTooCoarse("need at least 3 points per direction")
    dt = t[1] - t[0]
    dx = x[1] - x[0]
    E, rho, N = state.E, state.rho, state.N

    w = average_weights(profile, lam)
    avg = rho @ w

    E_t = (E[2:, 1:-1] - E[:-2, 1:-1]) / (2 * dt)
    E_x = (E[1:-1, 2:] - E[1:-1, :-2]) / (2 * dx)
    r1 = E_t + E_x - avg[1:-1, 1:-1]

    rho_t = (rho[2:] - rho[:-2]) / (2 * dt)
    r2 = rho_t + 2j * lam * rho[1:-1] - N[1:-1] * E[1:-1, :, None]

    N_t = (N[2:] - N[:-2]) / (2 * dt)
    r3 = N_t + np.real(np.conj(E[1:-1, :, None]) * rho[1:-1])

    return (float(np.max(np.abs(r1))), float(np.max(np.abs(r2))),
            float(np.max(np.abs(r3))))


# ----------------------------------------------------------------------
# contour route: M off the contour, symmetry, medium readout
# ----------------------------------------------------------------------

def schwartz_error(jd):
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


def identity_jump(contour, t=0.0, x=0.0):
    """The trivial jump J = I on the contour nodes."""
    J = np.broadcast_to(np.eye(2, dtype=complex), (contour.n_nodes, 2, 2)).copy()
    return JumpData(t=t, x=x, nodes=contour.nodes, J=J)


def sie_solve_full(contour, jd):
    """Both rows of Q = M+ - I, shape (N, 2, 2), and the z^{-1} moment m
    of M, from two first-row solves by `mbrh.rhsolver.sie_solve`.

    Row 2 of Q - C+[Q(I-J)] = C+[I-J] is row 1 of the problem with jump
    sigma1 J sigma1, multiplied on the right by sigma1.
    """
    row1 = sie_solve(contour, jd).Q
    swapped = dataclasses.replace(jd, J=SIGMA1 @ jd.J @ SIGMA1)
    row2 = sie_solve(contour, swapped).Q @ SIGMA1
    Q = np.stack([row1, row2], axis=1)
    X = (np.eye(2) + Q) @ (jd.J - np.eye(2))
    return Q, np.einsum("j,jab->ab", contour.weights, X) / (2j * np.pi)


def evaluate_M(Q, contour, jd, z):
    """Off-contour M(z) = I + (1/2 pi i) int (I+Q)(I-J)/(s-z) ds, with Q
    both rows of M+ - I (`sie_solve_full`).

    Refuses z closer to a node than EVAL_FLOOR times the smallest node
    spacing within a panel.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    panels = contour.nodes.reshape(contour.edges.size - 1, -1)
    floor = EVAL_FLOOR * np.min(np.diff(panels, axis=1))
    dist = np.min(np.abs(z[:, None] - contour.nodes[None, :]), axis=1)
    if np.any(dist < floor):
        raise TooCloseToContour(f"evaluation point within {floor:.3e} of a node")
    P = np.eye(2) + Q
    Y = P @ (np.eye(2) - jd.J)                           # (N, 2, 2)
    kern = contour.weights[None, :] / (contour.nodes[None, :] - z[:, None])
    return np.eye(2) + np.einsum("zj,jab->zab", kern, Y) / (2j * np.pi)


def soliton_closed_form_real(poles, profile, t, x):
    """Reflectionless field from the residue linear system at one stamp
    (t, x): the real form that `mbrh.rhsolver.soliton_closed_form`
    replaced, kept as its reference.

    poles: list of (z_j in C+, m_j).  M = I + sum_j (A_j/(z - z_j)
    + B_j/(z - z_j*)) with A_j supported on column 2 and B_j its
    sigma2-conjugate; the residue conditions close into an antilinear
    system for the column vectors a_j, solved as a real system of
    dimension 4p.  Returns (E, a) with a the stacked column vectors.
    """
    p = len(poles)
    if p == 0:
        return 0.0 + 0.0j, np.zeros((0, 2), complex)
    zj, cj = residue_constants(poles, profile, t, x)

    # a_j - c_j sum_k S_jk conj(b-map(a_k)) = c_j e1, with
    # b_k = (conj(a_k2), -conj(a_k1)) and S_jk = 1/(z_j - conj(z_k))
    S = 1.0 / (zj[:, None] - np.conj(zj)[None, :])

    # real formulation: unknown u = [Re a; Im a], a flattened (p, 2)
    dim = 2 * p
    Lmap = np.zeros((2 * dim, 2 * dim))
    # action: (T a)_j = c_j sum_k S_jk (conj(a_k2), -conj(a_k1))
    # build as a real-linear operator on u
    basis = np.eye(2 * dim)
    for col in range(2 * dim):
        u = basis[:, col]
        a = (u[:dim] + 1j * u[dim:]).reshape(p, 2)
        b = np.stack([np.conj(a[:, 1]), -np.conj(a[:, 0])], axis=1)
        Ta = cj[:, None] * (S @ b)
        Lmap[:, col] = np.concatenate([Ta.real.ravel(), Ta.imag.ravel()])
    rhs_c = np.zeros((p, 2), complex)
    rhs_c[:, 0] = cj
    rhs = np.concatenate([rhs_c.real.ravel(), rhs_c.imag.ravel()])
    sys = np.eye(2 * dim) - Lmap
    try:
        sol = np.linalg.solve(sys, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResidueSystem(str(exc)) from exc
    a = (sol[:dim] + 1j * sol[dim:]).reshape(p, 2)
    # z^{-1} moment: column-2 residues A_j contribute a_j1 at entry (1,2)
    E = -4j * np.sum(a[:, 0])
    return E, a


def soliton_evaluate_M(poles, profile, t, x, z):
    """Meromorphic M(z) of the reflectionless solution at points z."""
    _, a = soliton_closed_form(poles, profile, t, x)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zj = np.array([zz for zz, _ in poles], dtype=complex)
    out = np.broadcast_to(np.eye(2, dtype=complex), z.shape + (2, 2)).copy()
    for j in range(len(poles)):
        Aj = np.zeros((2, 2), complex)
        Aj[:, 1] = a[j]
        Bj = np.zeros((2, 2), complex)
        Bj[0, 0] = np.conj(a[j, 1])
        Bj[1, 0] = -np.conj(a[j, 0])
        out += (Aj[None] / (z - zj[j])[:, None, None]
                + Bj[None] / (z - np.conj(zj[j]))[:, None, None])
    return out


def reconstruct_F_nodes(Q, Q_xp, Q_xm, jd, jd_xp, jd_xm,
                        profile, hx, node_mask=None):
    """Medium state at real collocation nodes from boundary values.

    Uses the solved plus-boundary M+ = I + Q at the nodes (Q of both
    rows, `sie_solve_full`), M- = M+ J, and
    Phi_x Phi^{-1} = M_x M^{-1} + i eta M sigma3 M^{-1} on each side,
    with Q_x and J_x by central differences from solves at x +- hx; the
    jump of that derivative is (pi i / 2) n F.  Returns (lam, N, rho)
    over the selected real nodes.
    """
    lam_all = jd.nodes
    if node_mask is None:
        node_mask = lam_all.imag == 0.0
    lam = lam_all[node_mask].real
    nv = profile.n(lam)
    if np.any(np.abs(nv) < 1e-6):
        raise WeightVanishes("n(lambda) too small for the jump formula")
    ev = eta_boundary(profile, lam)
    sig = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

    Mp = np.eye(2) + Q[node_mask]
    Mp_x = (Q_xp[node_mask] - Q_xm[node_mask]) / (2 * hx)
    J = jd.J[node_mask]
    # the jump carries x-dependence beyond the explicit phases (its
    # undressed factor evolves with the medium), so differentiate the
    # assembled jump numerically
    J_x = (jd_xp.J[node_mask] - jd_xm.J[node_mask]) / (2 * hx)
    Mm = Mp @ J
    Mm_x = Mp_x @ J + Mp @ J_x
    up = Mp_x @ inv2(Mp) \
        + 1j * ev.eta_plus[:, None, None] * (Mp @ sig @ inv2(Mp))
    dn = Mm_x @ inv2(Mm) \
        + 1j * ev.eta_minus[:, None, None] * (Mm @ sig @ inv2(Mm))
    F = (up - dn) * (2.0 / (np.pi * nv))[:, None, None]
    N = F[:, 0, 0].real
    rho = 0.5 * (F[:, 0, 1] + np.conj(F[:, 1, 0]))
    return lam, N, rho
