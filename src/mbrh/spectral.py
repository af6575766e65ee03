"""Spectral data of the Lax pair from the physical data.

The boundary pulse E_in enters through the Jost solution of the t-equation
at x = 0; the initial data (E0, rho0) enter through the Jost solutions of
the two half-plane x-equations at t = 0, which differ only in their local
medium terms and are propagated together in one stacked sweep.
Transition matrices between the two give the scattering functions a, b
and the reflection coefficients.

All integrations use a fixed-step 4th-order Magnus scheme (two Gauss nodes
per step, single commutator) in component form.  The generators are
traceless, [[a, b], [c, -a]], plus a scalar shift per z for a continued
column, so Omega is traceless in closed form and
exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = a^2 + bc, times
e^{h shift}: every propagator has unit determinant to machine precision,
which the downstream jump-matrix certificates rely on.  A block of up to
MAGNUS_BLOCK steps takes one generator call at all its Gauss nodes, one
batch of exponentials (series in mu^2) and rounds of pairwise products
that compose them into the block's propagator.
"""

from dataclasses import dataclass, field

import numpy as np

from .broadening import LAM_POINTS, LAM_WINDOW, eta_eval
from .errors import (
    CountMismatch,
    DecayViolation,
    MediumNotAsymptotic,
    SpectralSingularity,
)
from .lax import medium_from_rho, medium_transform
from .mat2 import det2, diag_exp, inv2

_GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0

DEFAULT_STEP = 0.01
MAGNUS_BLOCK = 64           # steps whose exponentials are built at once
MAGNUS_WIDTH = 384          # columns z above which a block takes fewer steps
_TAYLOR_TERMS = 10          # terms of the cosh and sinh(mu)/mu series in mu^2
SINGULAR_FLOOR = 1e-8       # |a| below this on the axis is a spectral singularity
NEWTON_TOL = 1e-10          # Newton step at which a zero of a counts as found


@dataclass(frozen=True)
class ScenarioData:
    """Physical data of the mixed problem on [0, T] x [0, L].

    E_in and E0 are vectorized callables (boundary pulse and initial field);
    rho0(x, lam) is the initial polarization table, or None for the
    unexcited medium; the x-equation calls it with a column (m, 1) of
    depths for m rows at once.  The inversion N0 always takes the
    positive branch sqrt(1 - |rho0|^2).
    """

    T: float
    L: float
    E_in: object
    E0: object
    rho0: object = None

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
        """Slice of the excited medium (rho0 not None) at depth x; a 1-d x
        gives the stacked slices, one row per depth."""
        if np.ndim(x):
            x = np.asarray(x, dtype=float)[:, None]
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
    """Scattering functions on the real grid, with their certificates."""

    a_plus: np.ndarray
    b_plus: np.ndarray
    r_plus: np.ndarray
    r_bar_minus: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Magnus propagation
# ----------------------------------------------------------------------

_magnus_steps = 0           # Magnus steps taken by this process


def magnus_steps_taken():
    """Magnus steps taken by this process so far (run traces difference it)."""
    return _magnus_steps


def _cosh_sinhc(mu2):
    """cosh(mu) and sinh(mu)/mu as functions of mu^2.

    Taylor series in mu^2 of _TAYLOR_TERMS terms by Horner's rule, whose
    truncation 1/20! is below the rounding of the leading 1 for
    |mu^2| <= 1.  The closed form is kept only where |mu^2| > 1.
    """
    ch, shc = np.ones_like(mu2), np.ones_like(mu2)
    for k in range(_TAYLOR_TERMS - 1, 0, -1):
        ch *= mu2
        ch *= 1.0 / ((2 * k - 1) * 2 * k)
        ch += 1.0
        shc *= mu2
        shc *= 1.0 / (2 * k * (2 * k + 1))
        shc += 1.0
    big = np.abs(mu2) > 1.0
    if np.any(big):
        mu = np.sqrt(mu2[big])
        ch[big], shc[big] = np.cosh(mu), np.sinh(mu) / mu
    return ch, shc


def _matmul(x, y):
    """x @ y for 2x2 matrices given as entry tuples (m00, m01, m10, m11)."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _compose(e):
    """Product e[B-1] ... e[1] e[0] of a stack of B step matrices, given
    as the entry tuple of (B, Nz) arrays, by rounds of pairwise products."""
    while len(e[0]) > 1:
        odd = len(e[0]) % 2
        pairs = _matmul(tuple(v[1::2] for v in e),
                        tuple(v[:len(v) - odd:2] for v in e))
        e = tuple(np.concatenate([p, v[len(v) - odd:]])
                  for p, v in zip(pairs, e)) if odd else pairs
    return tuple(v[0] for v in e)


def _apply(m, u0, u1):
    """Rows of m @ U for the rows u0, u1 (Nz, k) of U."""
    m00, m01, m10, m11 = (v[:, None] for v in m)
    return m00 * u0 + m01 * u1, m10 * u0 + m11 * u1


def magnus_propagate(gen, s_grid, terminal, shift=0.0, at=None):
    """Integrate dU/ds = (A(s) + shift) U backward from s_grid[-1] to s_grid[0].

    gen maps an array of m nodes s to the entries (a, b, c) of the
    traceless A = [[a, b], [c, -a]], each broadcastable to (m, Nz); shift
    is a scalar per z.  terminal is U(s_grid[-1]), shape (Nz, 2, k).
    Returns U(s_grid[0]), or with `at` (indices into s_grid) the stack
    of U at those nodes.

    A block of steps takes one generator call at all its Gauss nodes,
    builds its step exponentials at once and composes them by pairwise
    products; the state moves by the block's whole product, so U at
    s_grid[0] does not depend on `at`.  Kept nodes inside a block are
    read off one copy of the block's start state, stepped through the
    block's steps up to the last of them.  Blocks hold MAGNUS_BLOCK
    steps, fewer for more than MAGNUS_WIDTH columns z, so their arrays
    stay the size of a MAGNUS_WIDTH-column block.
    """
    global _magnus_steps
    s = np.asarray(s_grid, dtype=float)
    n = s.size - 1
    keep = {0} if at is None else set(np.atleast_1d(at).tolist())
    u0 = np.array(terminal[..., 0, :], dtype=complex)       # rows of U, (Nz, k)
    u1 = np.array(terminal[..., 1, :], dtype=complex)
    block = max(1, min(MAGNUS_BLOCK, MAGNUS_BLOCK * MAGNUS_WIDTH // len(u0)))
    kept = {n: np.stack([u0, u1], axis=-2)} if n in keep else {}
    for top in range(n, 0, -block):
        i = np.arange(top, max(top - block, 0), -1)           # steps s_i -> s_{i-1}
        h = s[i - 1] - s[i]
        nodes = np.concatenate([s[i] + _GAUSS_C1 * h, s[i] + _GAUSS_C2 * h])
        (a1, a2), (b1, b2), (c1, c2) = (
            np.split(v, 2) for v in np.broadcast_arrays(*gen(nodes)))
        h = h[:, None]
        r = np.sqrt(3.0) / 12.0 * h * h
        # Omega = h/2 (A1 + A2) + r [A2, A1], traceless in closed form
        oa = 0.5 * h * (a1 + a2) + r * (b2 * c1 - c2 * b1)
        ob = 0.5 * h * (b1 + b2) + 2.0 * r * (a2 * b1 - b2 * a1)
        oc = 0.5 * h * (c1 + c2) + 2.0 * r * (c2 * a1 - a2 * c1)
        # exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = -det Omega
        ch, shc = _cosh_sinhc(oa * oa + ob * oc)
        steps = (ch + shc * oa, shc * ob, shc * oc, ch - shc * oa)
        if np.any(shift):
            scale = np.exp(h * shift)
            steps = tuple(scale * v for v in steps)
        inner = [j for j in range(i.size - 1) if i[j] - 1 in keep]
        v = u0, u1                                            # kept interior nodes
        for j in range(inner[-1] + 1 if inner else 0):
            v = _apply(tuple(e[j] for e in steps), *v)
            if i[j] - 1 in keep:
                kept[i[j] - 1] = np.stack(v, axis=-2)
        u0, u1 = _apply(_compose(steps), u0, u1)
        if i[-1] - 1 in keep:
            kept[i[-1] - 1] = np.stack([u0, u1], axis=-2)
    _magnus_steps += n
    return kept[0] if at is None else np.stack(
        [kept[g] for g in np.atleast_1d(at)])


def sorted_union(*values):
    """np.union1d of 1-d inputs by a sort and a neighbour mask (np.unique
    imports numpy.ma, which no run needs otherwise)."""
    v = np.sort(np.concatenate([np.ravel(a) for a in values]).astype(float))
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _refined_grid(targets, step):
    """Uniform refinement of a target lattice so every target is a node."""
    targets = np.asarray(targets, dtype=float)
    pieces = [targets[:1]]
    for a, b in zip(targets[:-1], targets[1:]):
        k = max(1, int(np.ceil((b - a) / step)))
        pieces.append(np.linspace(a, b, k + 1)[1:])
    return np.concatenate(pieces)


def _t_generator(scenario, z):
    """Entries of U = -i z sigma_3 - H(E_in(t)) at nodes t, with
    H(E) = [[0, E/2], [-E*/2, 0]]."""
    a = -1j * np.asarray(z)[None, :]

    def gen(t):
        e = 0.5 * np.asarray(scenario.E_in(t), dtype=complex)[:, None]
        return a, -e, np.conj(e)

    return gen


def _x_generator(scenario, z, G):
    """Entries of V = i z sigma_3 - i G + H(E0(x)) at depths x.

    G is g sigma_3 with g per z (unexcited medium; pass g), or a function
    of the depths giving the entries (g11, g12, g21), each (m, Nz), of
    the medium terms [[g11, g12], [g21, -g11]] of their slices.
    """
    z = np.asarray(z)[None, :]

    def gen(x):
        e = 0.5 * np.asarray(scenario.E0(x), dtype=complex)[:, None]
        if not callable(G):
            return 1j * (z - G), e, -np.conj(e)
        g11, g12, g21 = G(x)
        return 1j * (z - g11), e - 1j * g12, -np.conj(e) - 1j * g21

    return gen


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
    v0 = magnus_propagate(_t_generator(scenario, z),
                          _refined_grid([0.0, scenario.T], step), terminal,
                          shift=-1j * z)
    return v0[..., 1, 0], v0[..., 0, 0]          # A(z), B(z)


# ----------------------------------------------------------------------
# x-equation Jost solutions at t = 0
# ----------------------------------------------------------------------

def xbank_propagate(scenario, profile, ev, terminal, x_out,
                    step=DEFAULT_STEP):
    """Backward-propagate both half-plane x-equations from x = L at once.

    ev is the `EtaValues` of the real nodes lam.  The two banks are
    stacked on the node axis: terminal is the (2 Nlam, 2, 2) value at
    x = L, that of w+ on the first Nlam nodes and that of w- on the last,
    and the solution on x_out is returned in the same layout.  The banks
    share the generator but for their medium terms G+- (g+- sigma_3 for
    an unexcited medium), so one Magnus sweep of width 2 Nlam serves
    both; an excited medium is transformed on lam itself, each slice once
    for both banks.  A field-free x-equation is the exact phase.  The
    terminal value sits at x = L, so an x_out outside [0, L] is refused
    (`ValueError`).
    """
    lam = np.concatenate([ev.lam, ev.lam])
    x_out = np.asarray(x_out, dtype=float)
    if not np.all((0.0 <= x_out) & (x_out <= scenario.L)):
        raise ValueError(f"x_out must lie in [0, L] = [0, {scenario.L:g}]")
    if scenario.medium_is_trivial:
        g = np.concatenate([ev.g_plus, ev.g_minus])     # eta_pm = lam - g_pm
        if scenario.field_free:
            # exact solution: pure phase relative to the terminal data
            return diag_exp(1j * (x_out[:, None] - scenario.L) * (lam - g)) @ terminal
        G = g
    else:
        transform = medium_transform(profile, ev.lam, ev)
        G = lambda x: transform(scenario.medium_slice(x, ev.lam))

    grid = _refined_grid(sorted_union(x_out, [0.0, scenario.L]), step)
    return magnus_propagate(_x_generator(scenario, lam, G), grid, terminal,
                            at=np.searchsorted(grid, x_out))


def jost_w(scenario, profile, ev, x_out=None, step=DEFAULT_STEP):
    """Jost matrices w+ and w- of the half-plane x-equations at t = 0 on
    an x lattice, from one stacked sweep (`xbank_propagate`).

    ev is the `EtaValues` of the real nodes lam.  Integrates backward from
    w_pm(L) = e^{i L eta_pm sigma_3}.  Returns (x_out, w+, w-), each w of
    shape (len(x_out), len(lam), 2, 2).
    """
    scenario.validate()
    if x_out is None:
        x_out = np.array([0.0, scenario.L])
    x_out = np.asarray(x_out, dtype=float)
    terminal = diag_exp(1j * scenario.L * np.concatenate([ev.eta_plus,
                                                          ev.eta_minus]))
    w = xbank_propagate(scenario, profile, ev, terminal, x_out, step=step)
    return x_out, w[:, :ev.lam.size], w[:, ev.lam.size:]


def wplus_column_continuation(scenario, profile, z, step=DEFAULT_STEP):
    """Continuation of (alpha, beta) to complex z (first column of w+).

    The rephased column u = w[:, 1] e^{-i eta(z) x} obeys
    u' = (V - i eta(z)) u with u(L) = (1, 0).  An excited medium is
    transformed on LAM_POINTS nodes of LAM_WINDOW.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    eta_z = eta_eval(profile, z)
    if scenario.field_free:
        return np.ones(z.shape, complex), np.zeros(z.shape, complex)
    if scenario.medium_is_trivial:
        G = z - eta_z
    else:
        lam_med = np.linspace(*LAM_WINDOW, LAM_POINTS)
        transform = medium_transform(profile, lam_med, z)
        G = lambda x: transform(scenario.medium_slice(x, lam_med))

    terminal = np.zeros(z.shape + (2, 1), dtype=complex)
    terminal[..., 0, 0] = 1.0
    u0 = magnus_propagate(_x_generator(scenario, z, G),
                          _refined_grid([0.0, scenario.L], step), terminal,
                          shift=-1j * eta_z)
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

    # reductions a- = conj(a-bar+) and b-bar+ = conj(b-)
    reduction = np.maximum(np.abs(Tm[..., 1, 1] - np.conj(Tp[..., 0, 0])),
                           np.abs(Tp[..., 1, 0] + np.conj(Tm[..., 0, 1])))
    return SpectralTable(
        a_plus=a_plus,
        b_plus=Tp[..., 0, 1],
        r_plus=Tp[..., 0, 1] / a_plus,
        r_bar_minus=-Tm[..., 1, 0] / Tm[..., 0, 0],
        diagnostics={
            "det_Tp_err": float(np.max(np.abs(det2(Tp) - 1.0))),
            "det_Tm_err": float(np.max(np.abs(det2(Tm) - 1.0))),
            "reduction_err": float(np.max(reduction)),
        },
    )


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


def locate_a_zeros(scenario, profile, window=(-5.0, 5.0, 0.05, 3.0),
                   step=0.02):
    """Zeros of the continued a(z) with residue constants, in the rectangle
    window = (re lo, re hi, im lo, im hi), Magnus step `step`.

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
