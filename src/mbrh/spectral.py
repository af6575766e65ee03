"""Spectral data of the Lax pair from the physical data.

The boundary pulse E_in enters through the Jost solution of the t-equation
at x = 0; the initial data (E0, rho0) enter through the Jost solutions of
the two half-plane x-equations at t = 0, which differ only in their local
medium terms and are propagated together in one stacked sweep
(`xbank_propagate`).  Transition matrices between the two give the
scattering functions a, b and the reflection coefficients.  The zeros of
a in the upper half-plane are counted and fitted from a on the real axis
and refined on a(z) = alpha A - beta B continued off it (`a_zeros`), from
one t-sweep and one x-sweep at the points z (`continued_columns`); the
x-sweep is the same `xbank_propagate`, its excited medium transformed on
the run's own detuning nodes.

All integrations use a fixed-step 6th-order Magnus scheme (three Gauss
nodes per step, three commutators; Blanes, Casas, Oteo & Ros, Phys. Rep.
470 (2009) 151) in component form.  The generators are traceless,
[[a, b], [c, -a]], plus a scalar shift per z for a continued column, and
the commutator of two such matrices is traceless again, so Omega is
traceless in closed form and
exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = a^2 + bc, times
e^{h shift}: every propagator has unit determinant to machine precision,
which the downstream jump-matrix certificates rely on.  A block of steps
takes one generator call at all its Gauss nodes, one batch of
exponentials (series in mu^2) and rounds of pairwise products that
compose them into the block's propagator.  The x-grid puts a node on
every x row of the rho0 table, where the medium is only piecewise linear
in x, so the scheme keeps its order there.
"""

from dataclasses import dataclass, field

import numpy as np

from .broadening import eta_eval, mirror_check
from .errors import (
    AmplifierZeros,
    CountMismatch,
    DecayViolation,
    MediumNotAsymptotic,
    SpectralOverflow,
    SpectralSingularity,
    TooCloseToAxis,
)
from .lax import medium_from_rho, medium_transform
from .mat2 import det2, diag_exp, inv2

_SQRT15 = np.sqrt(15.0)
_GAUSS = (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)

T_STEP = 0.035              # Magnus step of the t-equation
X_STEP = 0.025              # Magnus step of the x-equation
KNOT_TOL = 1e-9             # grid knots closer than this many steps are one
MAGNUS_BLOCK = 16           # steps whose exponentials are built at once
MAGNUS_WIDTH = 384          # columns of a MAGNUS_BLOCK-step block; fewer, more steps
_TAYLOR_TERMS = 10          # terms of the cosh and sinh(mu)/mu series in mu^2
STEP_ERR_STRIDE = 16        # every this many nodes enter the step-error estimate
SINGULAR_FLOOR = 1e-8       # |a| below this on the axis is a spectral singularity
NEWTON_TOL = 1e-10          # Newton step at which a zero of a counts as found
NEWTON_MAX = 30             # Newton steps after which a zero search is refused
SAME_ZERO_TOL = 1e-6        # Newton roots closer than this are one zero
FIT_TOL = 1e-2              # Blaschke-fit residual above which the count is refused
CLEARANCE_MIN = 2.5         # node spacings a zero of a must keep above the axis


@dataclass(frozen=True)
class ScenarioData:
    """Physical data of the mixed problem on [0, T] x [0, L].

    E_in and E0 are vectorized callables (boundary pulse and initial field);
    rho0(x, lam) is the initial polarization table, or None for the
    unexcited medium; the x-equation calls it with a column (m, 1) of
    depths for m rows at once.  rho0_x holds the depths of the table's x
    rows, between which rho0 is linear in x; the x-grid puts a node on
    each.  The inversion N0 always takes the positive branch
    sqrt(1 - |rho0|^2).
    """

    T: float
    L: float
    E_in: object
    E0: object
    rho0: object = None
    rho0_x: tuple = ()

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
        return medium_from_rho(np.asarray(self.rho0(x, lam_grid), complex))

    def validate(self, lam):
        """Refuse a pulse not decayed at t = T, and a medium not at rest at
        x = L on the run's detuning nodes lam (sampled there, the table's
        interpolation along lam is the one the x-sweep reuses)."""
        e = np.asarray(self.E_in(np.linspace(0.0, self.T, 2001)), complex)
        peak = np.max(np.abs(e))
        if peak > 0 and np.abs(e[-1]) > 1e-6 * peak:
            raise DecayViolation(
                f"boundary pulse at t=T is {abs(e[-1]):.2e}, above 1e-6 of peak")
        if self.rho0 is not None:
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


def _comm(x, y):
    """Entries (a, b, c) of [X, Y] for traceless X, Y = [[a, b], [c, -a]]
    given as (a, b, c): the commutator is traceless again."""
    return (x[1] * y[2] - y[1] * x[2], 2.0 * (x[0] * y[1] - x[1] * y[0]),
            2.0 * (x[2] * y[0] - x[0] * y[2]))


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


def magnus_propagate(gen, s_grid, terminal, shift=0.0, at=None, width=None):
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
    block's steps up to the last of them.  A block holds
    MAGNUS_BLOCK * MAGNUS_WIDTH // max(Nz, width) steps, so its arrays
    stay the size of a MAGNUS_BLOCK-step block of MAGNUS_WIDTH columns;
    width is the row length of the widest array the generator builds
    beyond Nz (the medium slices of an excited x-sweep span its whole
    detuning grid).
    """
    global _magnus_steps
    s = np.asarray(s_grid, dtype=float)
    n = s.size - 1
    keep = {0} if at is None else set(np.atleast_1d(at).tolist())
    u0 = np.array(terminal[..., 0, :], dtype=complex)       # rows of U, (Nz, k)
    u1 = np.array(terminal[..., 1, :], dtype=complex)
    block = max(1, MAGNUS_BLOCK * MAGNUS_WIDTH // max(len(u0), width or 0))
    kept = {n: np.stack([u0, u1], axis=-2)} if n in keep else {}
    for top in range(n, 0, -block):
        i = np.arange(top, max(top - block, 0), -1)           # steps s_i -> s_{i-1}
        h = s[i - 1] - s[i]
        nodes = (s[i] + np.multiply.outer(_GAUSS, h)).ravel()
        h = h[:, None]
        # alpha_k of the three Gauss nodes, entries (a, b, c) of each; an
        # entry constant in s stays one row (and one constant in z one
        # column), and its alpha_2 and alpha_3 vanish, so its arithmetic
        # stays small
        al1, al2, al3 = [], [], []
        for v in map(np.atleast_2d, gen(nodes)):
            if len(v) == 1:
                al1.append(h * v)
                al2.append(0.0)
                al3.append(0.0)
            else:
                x, y, z = np.split(v, 3)
                al1.append(h * y)
                al2.append(_SQRT15 / 3.0 * h * (z - x))
                al3.append(10.0 / 3.0 * h * (z - 2.0 * y + x))
        # Omega = al1 + al3/12 + [-20 al1 - al3 + C1, al2 + C2]/240 with
        # C1 = [al1, al2], C2 = -[al1, 2 al3 + C1]/60, traceless; the
        # 1/240 rides on y240 = (al2 + C2)/240
        c1 = _comm(al1, al2)
        y240 = _comm(al1, tuple(u * (-1.0 / 7200.0) + c * (-1.0 / 14400.0)
                                for u, c in zip(al3, c1)))
        y240 = tuple(v / 240.0 + c for v, c in zip(al2, y240))
        c3 = _comm(tuple(-20.0 * v - u + c for v, u, c in zip(al1, al3, c1)),
                   y240)
        oa, ob, oc = (v + u / 12.0 + c for v, u, c in zip(al1, al3, c3))
        # exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = -det Omega
        ch, shc = _cosh_sinhc(oa * oa + ob * oc)
        sa = shc * oa
        steps = np.broadcast_arrays(ch + sa, shc * ob, shc * oc, ch - sa)
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


def _refined_grid(targets, step, knots=()):
    """Uniform refinement of a sorted target lattice so every target is a
    node, and so is every knot inside it that lies more than KNOT_TOL
    steps from each target: a knot that rounding moved off a target (a
    table row at 0.15000000000000002 for a target at 0.15) adds no
    spurious short step, and neither does a ratio of spacing to step a
    rounding above an integer.  Each interval is np.linspace'd."""
    targets = np.asarray(targets, dtype=float)
    knots = np.asarray(knots, dtype=float)
    knots = knots[(targets[0] < knots) & (knots < targets[-1])]
    if knots.size:
        gap = np.min(np.abs(knots[:, None] - targets[None, :]), axis=1)
        targets = sorted_union(targets, knots[gap > KNOT_TOL * step])
    a, b = targets[:-1], targets[1:]
    k = np.maximum(1, np.ceil((b - a) / step - KNOT_TOL)).astype(int)
    i = np.repeat(np.arange(k.size), k)         # interval of each new node
    j = np.arange(1, k.sum() + 1) - np.repeat(np.cumsum(k) - k, k)
    nodes = np.where(j == k[i], b[i], j * ((b - a) / k)[i] + a[i])
    return np.concatenate([targets[:1], nodes])


def _x_grid(scenario, x_out, step):
    """x-grid of a sweep over [0, L] with nodes on x_out and on the rho0
    table's x rows."""
    return _refined_grid(sorted_union(x_out, [0.0, scenario.L]), step,
                         scenario.rho0_x)


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

def jost_phi(scenario, lam_grid, step=T_STEP):
    """Jost matrix of the t-equation at t = 0 for each real lam.

    Integrates backward from the plane-wave terminal value at t = T.
    Returns Phi0, whose entries [1, 1] and [0, 1] are A and B.
    """
    lam = np.asarray(lam_grid, dtype=float)
    return magnus_propagate(_t_generator(scenario, lam),
                            _refined_grid([0.0, scenario.T], step),
                            diag_exp(-1j * lam * scenario.T))


# ----------------------------------------------------------------------
# x-equation Jost solutions at t = 0
# ----------------------------------------------------------------------

def xbank_propagate(scenario, profile, ev, terminal, x_out, step=X_STEP,
                    cols=None, z=None):
    """Backward-propagate both half-plane x-equations from x = L at once,
    or the x-equation of w+ continued to the points z.

    ev is the `EtaValues` of the real nodes lam, of which the nodes cols
    (all by default) are propagated.  The two banks are stacked on the
    node axis: terminal is the (2 Nlam, 2, 2) value at x = L, that of w+
    on the first Nlam propagated nodes and that of w- on the last, and the
    solution on x_out is returned in the same layout.  The banks share the
    generator but for their medium terms G+- (g+- sigma_3 for an
    unexcited medium), so one Magnus sweep of width 2 Nlam serves both;
    an excited medium is transformed on all of lam, each slice once for
    both banks.  A field-free x-equation is the exact phase.  The
    terminal value sits at x = L, so an x_out outside [0, L] is refused
    (`ValueError`).

    With z (points of the upper half-plane; cols is then not read) the
    sweep propagates those points instead, terminal (Nz, 2, k), rephased
    by -i eta(z) so that the backward integration stays bounded; an
    excited medium is transformed off the axis, on the same lam.
    """
    medium_lam = ev.lam
    x_out = np.asarray(x_out, dtype=float)
    if not np.all((0.0 <= x_out) & (x_out <= scenario.L)):
        raise ValueError(f"x_out must lie in [0, L] = [0, {scenario.L:g}]")
    if z is None:
        if cols is not None:
            ev = ev.take(cols)
        points, targets, shift = np.concatenate([ev.lam, ev.lam]), ev, 0.0
        g = np.concatenate([ev.g_plus, ev.g_minus])
        eta = np.concatenate([ev.eta_plus, ev.eta_minus])   # lam - g
    else:
        points = targets = np.atleast_1d(np.asarray(z, dtype=complex))
        eta = eta_eval(profile, points)
        g, shift = points - eta, -1j * eta
    if scenario.medium_is_trivial:
        if scenario.field_free:
            # exact solution: pure phase relative to the terminal data;
            # rephased, the first row's phase cancels
            exact = diag_exp(1j * (x_out[:, None] - scenario.L) * eta)
            if z is not None:
                exact[..., 0, 0], exact[..., 1, 1] = 1.0, exact[..., 1, 1] ** 2
            return exact @ terminal
        G, width = g, None
    else:
        transform = medium_transform(profile, medium_lam, targets)
        G = lambda x: transform(scenario.medium_slice(x, medium_lam))
        width = medium_lam.size

    grid = _x_grid(scenario, x_out, step)
    return magnus_propagate(_x_generator(scenario, points, G), grid, terminal,
                            shift=shift, at=np.searchsorted(grid, x_out),
                            width=width)


def jost_w(scenario, profile, ev, x_out=None, step=X_STEP, cols=None):
    """Jost matrices w+ and w- of the half-plane x-equations at t = 0 on
    an x lattice, from one stacked sweep (`xbank_propagate`).

    ev is the `EtaValues` of the real nodes lam, of which the nodes cols
    (all by default) are solved.  Integrates backward from
    w_pm(L) = e^{i L eta_pm sigma_3}.  Returns (w+, w-), each of shape
    (len(x_out), len(lam[cols]), 2, 2).
    """
    if x_out is None:
        x_out = np.array([0.0, scenario.L])
    evc = ev if cols is None else ev.take(cols)
    terminal = diag_exp(1j * scenario.L * np.concatenate([evc.eta_plus,
                                                          evc.eta_minus]))
    w = xbank_propagate(scenario, profile, ev, terminal, x_out, step=step,
                        cols=cols)
    return w[:, :evc.lam.size], w[:, evc.lam.size:]


def data_mirror(scenario, ev, x_out, t_step, x_step):
    """`mirror_check` of what the Jost solves read, on the run's own
    nodes: the detuning nodes lam (odd), eta+- and g+- (eta(-lam) =
    -conj eta(lam)) and n (even), each against its largest modulus; E_in
    on the t-grid of `jost_phi` and E0 on the x-grid of the sweep to x_out
    real; and rho0 on that x-grid, rho(-lam) = conj rho(lam) against
    max|rho|, which makes N = sqrt(1 - |rho|^2) even.  Mirrored data
    have mirrored Jost solutions, X(-lam) = conj X(lam)."""
    x_grid = _x_grid(scenario, x_out, x_step)
    top = lambda X: np.max(np.abs(X), initial=0.0)
    pairs = [(X, sign, top(X)) for X, sign in (
        (ev.lam, -1.0), (ev.eta_plus, -1.0), (ev.eta_minus, -1.0),
        (ev.g_plus, -1.0), (ev.g_minus, -1.0), (ev.n, 1.0))]
    if not scenario.medium_is_trivial:
        rho = np.asarray(scenario.rho0(x_grid[:, None], ev.lam), complex)
        pairs.append((rho, 1.0, top(rho)))
    pulses = (scenario.E_in(_refined_grid([0.0, scenario.T], t_step)),
              scenario.E0(x_grid))
    return mirror_check(pairs, [(np.asarray(E), top(E)) for E in pulses])


# ----------------------------------------------------------------------
# transition matrices and reflection coefficients
# ----------------------------------------------------------------------

def transition_and_reflection(lam_grid, Phi0, w_plus0, w_minus0):
    """Scattering table from T_pm = (w_pm(0))^{-1} Phi(0)."""
    lam = np.asarray(lam_grid, dtype=float)
    Tp = inv2(w_plus0) @ Phi0
    Tm = inv2(w_minus0) @ Phi0
    bad = ~(np.isfinite(Tp) & np.isfinite(Tm)).all(axis=(-2, -1))
    if bad.any():
        raise SpectralOverflow(
            f"T+- not finite at lam={lam[np.argmax(bad)]:.4f} "
            f"({np.count_nonzero(bad)} of {lam.size} nodes)")

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


def step_error(scenario, profile, ev, Phi0, w0, t_step, x_step, first=0):
    """Step-doubling estimates {"t", "x"} of the step error of the Jost
    solutions Phi(0) (t-equation) and w0 = (w+(0), w-(0)) (x-equation)
    on the nodes of ev.

    Each equation is solved again at twice its step on every
    STEP_ERR_STRIDE-th node from node first (the first one solved) and
    on the last one; the largest entry of the
    difference over 2^6 - 1, the scheme being of order 6, estimates the
    error of the solution at the step itself.  An excited medium is still
    transformed on all the nodes.
    """
    n = ev.lam.size
    sub = np.append(np.arange(first, n - 1, STEP_ERR_STRIDE), n - 1)
    coarse = jost_phi(scenario, ev.lam[sub], step=2.0 * t_step)
    err = {"t": np.max(np.abs(coarse - Phi0[sub]))}
    coarse = jost_w(scenario, profile, ev, [0.0], step=2.0 * x_step, cols=sub)
    err["x"] = max(np.max(np.abs(c[0] - w[sub])) for c, w in zip(coarse, w0))
    return {k: float(v) / (2 ** 6 - 1) for k, v in err.items()}


# ----------------------------------------------------------------------
# zeros of the continued a(z) in the upper half-plane
# ----------------------------------------------------------------------

def equation_steps(step=None):
    """Magnus steps (t-equation, x-equation): step for both, or T_STEP and
    X_STEP when it is None."""
    return (T_STEP, X_STEP) if step is None else (step, step)


def continued_columns(scenario, profile, z, ev, step=None):
    """(A, B, alpha, beta) continued to the points z of the upper
    half-plane: the second Jost column of the t-equation at x = 0 and the
    first of w+ at t = 0 (Magnus steps as in `equation_steps`).

    The rephased columns v = Phi[:, 2] e^{-izt} and u = w+[:, 1]
    e^{-i eta(z) x} obey v' = (U - iz) v, v(T) = (0, 1), and
    u' = (V - i eta(z)) u, u(L) = (1, 0); backward integration is
    contractive for Im z > 0.  The x-sweep is `xbank_propagate`'s, so an
    excited medium is transformed on the nodes of ev, the run's own.
    """
    t_step, x_step = equation_steps(step)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    terminal = np.zeros(z.shape + (2, 1), dtype=complex)
    terminal[..., 1, 0] = 1.0
    v = magnus_propagate(_t_generator(scenario, z),
                         _refined_grid([0.0, scenario.T], t_step), terminal,
                         shift=-1j * z)
    u = xbank_propagate(scenario, profile, ev, terminal[..., ::-1, :], [0.0],
                        step=x_step, z=z)[0]           # u(L) = (1, 0)
    return v[..., 1, 0], v[..., 0, 0], u[..., 0, 0], u[..., 1, 0]


def continued_a(scenario, profile, z, ev, step=None):
    """a(z) = alpha(z) A(z) - beta(z) B(z) for Im z > 0
    (`continued_columns`)."""
    A, B, alpha, beta = continued_columns(scenario, profile, z, ev, step)
    return alpha * A - beta * B


def axis_zero_count(lam, a):
    """Zeros of a in the upper half-plane by the argument principle on the
    real axis, from a on the increasing nodes lam, the path closed by
    a -> 1 beyond them.  The count holds when the arg steps between
    neighbouring nodes are well below pi and a is near 1 at the ends, so
    that the closing pieces from 1 to a(lam[0]) and from a(lam[-1]) to 1
    turn by arg a there; `a_zeros` refuses a count its Blaschke fit
    contradicts.
    """
    turn = np.sum(np.angle(a[1:] / a[:-1])) + np.angle(a[0]) - np.angle(a[-1])
    return int(np.round(turn / (2.0 * np.pi)))


def _blaschke_fit(contour, a, p):
    """Roots of P and max|B conj(P) - P| / max|P| on the nodes, for the
    degree-p least-squares fit B conj(P) = P.  B = (a/|a|) exp(-2i H
    log|a|) is the Blaschke factor of a = B e^g (inner-outer; Garnett,
    Bounded Analytic Functions, 2007; Im g = 2H log|a| by C+ = I/2 + iH).
    P = T (x + iy) + T_p in the Chebyshev basis T of the window, and
    B conj(P) - P = (B - 1) T x - i (B + 1) T y + (B - 1) T_p is
    real-linear in (x, y)."""
    mod = np.abs(a)
    B = a / mod * np.exp(-2j * (contour.kernel() @ np.log(mod)))
    lo, hi = contour.edges[0], contour.edges[-1]
    # not imported with this module: loaded ahead of rhsolver's leggauss,
    # it moved every run's peak RSS up by 0.3 MB
    cheb = np.polynomial.chebyshev
    T = cheb.chebvander((2.0 * contour.nodes - lo - hi) / (hi - lo), p)
    M = np.hstack([(B - 1.0)[:, None] * T[:, :p],
                   -1j * (B + 1.0)[:, None] * T[:, :p]])
    rhs = (1.0 - B) * T[:, p]
    xy = np.linalg.lstsq(np.vstack([M.real, M.imag]),
                         np.concatenate([rhs.real, rhs.imag]), rcond=None)[0]
    c = np.append(xy[:p] + 1j * xy[p:], 1.0)
    P = T @ c
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * cheb.chebroots(c),
            float(np.max(np.abs(B * np.conj(P) - P)) / np.max(np.abs(P))))


def _newton(afun, z):
    """Newton on afun from the starts z at once, by central differences.
    Returns (roots, steps, derivative at the last iterate); CountMismatch
    when a start or iterate lies off the upper half-plane or overflows
    (afun is not evaluated there), or the steps stay above NEWTON_TOL."""
    z = np.array(z, dtype=complex)
    with np.errstate(all="ignore"):        # a diverging start is refused
        for k in range(1, NEWTON_MAX + 1):
            if not np.all(np.isfinite(z) & (z.imag > 0.0)):
                raise CountMismatch(f"a Newton iterate on a(z) left the upper "
                                    f"half-plane or overflowed: {z}")
            h = 1e-5 * (1.0 + np.abs(z))
            f, fm, fp = np.split(afun(np.concatenate([z, z - h, z + h])), 3)
            deriv = (fp - fm) / (2.0 * h)
            dz = f / deriv
            z = z - dz
            if np.all(np.abs(dz) < NEWTON_TOL):
                return z, k, deriv
    raise CountMismatch(f"Newton on a(z) did not converge in {NEWTON_MAX} "
                        f"steps (last iterates {z})")


def a_zeros(scenario, profile, ev, contour, a):
    """Poles (z_j, m_j) of a run, from a on the contour nodes, whose
    `EtaValues` are ev.

    The roots of the Blaschke fit (`_blaschke_fit`) of the p zeros counted
    on the axis (`axis_zero_count`) start Newton on `continued_a`; m_j =
    gamma_j / a'(z_j), gamma_j = B(z_j) / alpha(z_j), with a' from the
    last Newton step.  CountMismatch refuses a fit residual above FIT_TOL
    (max|B - 1| at p = 0: a B that winds passes through -1), a Newton
    failure and two roots on one zero; AmplifierZeros, before Newton, a
    zero on an amplifier (profile.sign > 0), whose residue conditions
    are not derived here; TooCloseToAxis a zero less than
    CLEARANCE_MIN node spacings of its nearest panel above the axis, where
    Gauss sums cannot resolve 1/(s - z_j).  Returns (poles, {"axis",
    "fit_residual", "newton_steps", "clearance": min Im z_j / spacing}).
    """
    n = axis_zero_count(contour.nodes, a)
    roots, residual = _blaschke_fit(contour, a, max(n, 0))
    report = {"axis": n, "fit_residual": residual, "newton_steps": 0,
              "clearance": None}
    if residual > FIT_TOL:
        raise CountMismatch(
            f"the argument of a on the real axis counts {n} zero(s) in the "
            f"upper half-plane, but their Blaschke factor fits a only to "
            f"{residual:.2e} (above {FIT_TOL:g})")
    if n <= 0:
        return [], report
    if profile.sign > 0:
        raise AmplifierZeros(
            f"the argument of a on the real axis counts {n} zero(s) in the "
            f"upper half-plane on an amplifier, whose residue conditions "
            f"the contour route does not solve")
    z, report["newton_steps"], adot = _newton(
        lambda zz: continued_a(scenario, profile, zz, ev), roots)
    if np.min(np.abs(z[:, None] - z[None, :]) + np.eye(n)) < SAME_ZERO_TOL:
        raise CountMismatch(f"two Newton roots converged to one zero of a: {z}")
    width = np.diff(contour.edges)
    k = np.clip(np.searchsorted(contour.edges, z.real) - 1, 0, width.size - 1)
    clearance = z.imag / (width[k] * width.size / contour.n_nodes)
    j = int(np.argmin(clearance))
    report["clearance"] = float(clearance[j])
    if clearance[j] < CLEARANCE_MIN:
        raise TooCloseToAxis(
            f"the zero of a at {z[j].real:.6f}{z[j].imag:+.6f}i lies "
            f"{clearance[j]:.2f} node spacings above the axis, below the "
            f"{CLEARANCE_MIN:g} the contour panels resolve")
    _, B, alpha, _ = continued_columns(scenario, profile, z, ev)
    return list(zip(z.tolist(), (B / alpha / adot).tolist())), report
