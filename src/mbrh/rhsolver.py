"""Contour discretization and the singular-integral-equation solver.

The conjugation problem M- = M+ J on the contour Sigma is recast through
the plus-side Cauchy operator as Q - C+[Q(I-J)] = C+[I-J]; the solution
parameterizes M(z) = I + (1/2 pi i) int (I+Q)(I-J)/(s-z) ds.  The field
envelope E = -4i m12, m the z^{-1} moment of M, needs only the first row
of Q, and the rows decouple, so only that row is solved.

A contour of real-axis panels only, where C+ = I/2 + iH with H real, is
solved matrix-free by GMRES on H, with a Hessenberg (kappa_2 lower bound)
condition certificate; a contour with pole circles, and any stamp the
Krylov path cannot certify, takes the dense LU with the `zgecon`
estimate, which alone refuses ill-conditioned systems.  The Krylov path
runs on numpy alone; `scipy.linalg` is imported by the first LU stamp,
so only a run with one (`lu_stamps` > 0 in `meta.json`) pays for
loading it.

Pure-soliton (reflectionless) data bypasses the contour entirely: its
residue conditions are one complex 2p x 2p linear system per stamp, and
a whole (t, x) lattice is solved by one batched call.  A residue
constant c_j that overflows (2 Im z_j t past about 709) is refused.
Inside a contour solve each pole is replaced by a small clockwise circle
carrying a rank-one jump.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .broadening import LAM_WINDOW, eta_eval
from .errors import (
    EmptyContour,
    IllConditioned,
    PosdefViolated,
    SingularResidueSystem,
)
from .jump import JumpData, posdef_check


# ----------------------------------------------------------------------
# contour
# ----------------------------------------------------------------------

CIRCLE_NODES = 64           # trapezoid nodes per pole circle
N_PANELS = 24               # default real-axis panels
NODES_PER_PANEL = 16        # default Gauss-Legendre nodes per panel


@dataclass
class Panel:
    kind: str                   # "segment" | "circle"
    nodes: np.ndarray           # complex
    weights: np.ndarray         # complex, reproduce oriented int dz
    diff: np.ndarray            # nodal differentiation matrix (d/dz)
    endpoints: tuple | None     # (a, b) for segments
    center: complex | None = None


@dataclass
class ContourSigma:
    panels: list
    _cp: np.ndarray = field(default=None, repr=False)   # see kernel

    @property
    def nodes(self):
        return np.concatenate([p.nodes for p in self.panels])

    @property
    def weights(self):
        return np.concatenate([p.weights for p in self.panels])

    @property
    def n_nodes(self):
        return sum(p.nodes.size for p in self.panels)

    @property
    def real_axis(self):
        return all(p.kind == "segment" for p in self.panels)

    def kernel(self):
        """The one cached N x N matrix: on a real-axis contour C+ is
        exactly I/2 + iH with H real, and H is kept; else C+ itself."""
        if self._cp is None:
            CP = _build_cauchy_plus(self)
            self._cp = CP.imag.copy() if self.real_axis else CP
        return self._cp

    def cauchy_plus(self):
        K = self.kernel()
        return K if K.dtype == complex else 0.5 * np.eye(len(K)) + 1j * K

    def cauchy_apply(self, X):
        """C+[X] for nodal data X (N, k); with H, X/2 + i(HX) by one real
        (N x N)(N x 2k) product on the float view of X."""
        K = self.kernel()
        if K.dtype == complex:
            return K @ X
        return 0.5 * X + 1j * (K @ np.ascontiguousarray(X).view(float)).view(complex)


def _barycentric_diff(x):
    """Differentiation matrix for arbitrary distinct nodes."""
    x = np.asarray(x)
    n = x.size
    diffs = x[:, None] - x[None, :]
    np.fill_diagonal(diffs, 1.0)
    lam = 1.0 / np.prod(diffs, axis=1)
    D = (lam[None, :] / lam[:, None]) / diffs
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def _trig_diff(m):
    """Spectral differentiation in the angle for m uniform nodes (m even)."""
    k = np.arange(m)
    diffs = k[:, None] - k[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = 0.5 * (-1.0) ** diffs / np.tan(np.pi * diffs / m)
    np.fill_diagonal(D, 0.0)
    return D


def segment_panel(a, b, n_nodes):
    xg, wg = leggauss(n_nodes)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * xg
    weights = 0.5 * (b - a) * wg
    D = _barycentric_diff(nodes)
    return Panel(kind="segment", nodes=nodes.astype(complex),
                 weights=weights.astype(complex), diff=D.astype(complex),
                 endpoints=(float(a), float(b)))


def circle_panel(center, radius, n_nodes, offset=0.5):
    """Clockwise circle (plus side outside); uniform-angle trapezoid nodes."""
    if n_nodes % 2:
        raise ValueError("circle panels need an even node count")
    theta = (np.arange(n_nodes) + offset) * 2 * np.pi / n_nodes
    nodes = center + radius * np.exp(-1j * theta)
    # z(theta) = c + R e^{-i theta}: dz/dtheta = -i R e^{-i theta}
    dz = -1j * radius * np.exp(-1j * theta)
    weights = dz * (2 * np.pi / n_nodes)
    Dth = _trig_diff(n_nodes)
    D = Dth / dz[:, None]
    return Panel(kind="circle", nodes=nodes, weights=weights, diff=D,
                 endpoints=None, center=complex(center))


def contour_build(window=LAM_WINDOW, n_panels=N_PANELS,
                  nodes_per_panel=NODES_PER_PANEL, circles=()) -> ContourSigma:
    """Equal real-axis panels on window (left to right) plus clockwise
    circles of CIRCLE_NODES nodes.

    circles: iterable of (center, radius); conjugate closure of the node
    multiset is the caller's responsibility (add circles in conjugate
    pairs for off-axis data).
    """
    edges = np.linspace(window[0], window[1], n_panels + 1)
    panels = [segment_panel(a, b, nodes_per_panel)
              for a, b in zip(edges[:-1], edges[1:])]
    panels += [circle_panel(c, r, CIRCLE_NODES) for c, r in circles]
    if not panels:
        raise EmptyContour("no panels requested")
    return ContourSigma(panels=panels)


def _build_cauchy_plus(contour):
    """Dense discrete plus-side Cauchy operator (N x N, scalar samples).

    Off-component entries are plain quadrature of 1/(s-z); the singular
    same-component part uses global subtraction with the exact p.v. of the
    constant (log of endpoint ratio for open segments, -i pi for closed
    clockwise circles) and a nodal differentiation matrix for the
    removable diagonal term.
    """
    z = contour.nodes
    w = contour.weights
    n = z.size
    with np.errstate(divide="ignore", invalid="ignore"):
        K = w[None, :] / (z[None, :] - z[:, None])
    np.fill_diagonal(K, 0.0)

    # group real segments into one component (shared endpoints), each
    # circle its own
    offs = np.cumsum([0] + [p.nodes.size for p in contour.panels])
    seg_idx = [np.arange(offs[i], offs[i + 1])
               for i, p in enumerate(contour.panels) if p.kind == "segment"]
    comps = []
    if seg_idx:
        seg_pan = [p for p in contour.panels if p.kind == "segment"]
        a = min(p.endpoints[0] for p in seg_pan)
        b = max(p.endpoints[1] for p in seg_pan)
        comps.append(("segment", np.concatenate(seg_idx), (a, b)))
    for i, p in enumerate(contour.panels):
        if p.kind == "circle":
            comps.append(("circle", np.arange(offs[i], offs[i + 1]), None))

    for kind, idx, ab in comps:
        sub = np.ix_(idx, idx)
        zc = z[idx]
        if kind == "segment":
            lam0 = np.log((ab[1] - zc) / (zc - ab[0]))
        else:
            lam0 = np.full(idx.size, -1j * np.pi)
        # subtraction: move sum_j w_j/(z_j - z_i) onto the diagonal
        Ksub = K[sub]
        colsum = np.sum(Ksub, axis=1)
        diag = lam0 - colsum
        Ksub[np.arange(idx.size), np.arange(idx.size)] = diag
        K[sub] = Ksub

    # removable diagonal term: w_i f'(z_i), panel-spectral derivative
    for i, p in enumerate(contour.panels):
        idx = np.arange(offs[i], offs[i + 1])
        sub = np.ix_(idx, idx)
        K[sub] += p.weights[:, None] * p.diff

    return K / (2j * np.pi) + 0.5 * np.eye(n)


# ----------------------------------------------------------------------
# singular integral equation
# ----------------------------------------------------------------------

COND_LIMIT = 1e12           # LU condition estimate above which a stamp is refused
KRYLOV_RTOL = 1e-15         # GMRES stops at residual norm <= this * ||b||_2
KRYLOV_BUDGET = 100         # Arnoldi steps before the LU fallback
KRYLOV_RESIDUAL = 1e-13     # a-posteriori max-norm residual, relative to C+[e1^T(I-J)]


@dataclass
class RHResult:
    Q: np.ndarray               # (N, 2) first row of the plus-boundary correction M+ - I
    E: complex
    diagnostics: dict = field(default_factory=dict)


def sie_solve(contour: ContourSigma, jd: JumpData) -> RHResult:
    """Collocation solve of the first row q of Q - C+[Q(I-J)] = C+[I-J]:
    q - C+[q(I-J)] = C+[e1^T(I-J)], whose 2N x 2N operator A each row of
    Q shares.

    Jump data with real-axis nodes must have a positive-definite
    Hermitian part there (`PosdefViolated` otherwise).  A contour of
    real-axis segments only is solved matrix-free by unrestarted GMRES
    (`_gmres`); `cond` is then s_max/s_min of its Hessenberg matrix, a
    lower bound on kappa_2(A).  The dense LU path, with `cond` the 1-norm
    estimate of `zgecon`, solves every contour with a circle panel, and
    every real-axis stamp whose Krylov estimate exceeds COND_LIMIT/1e3,
    whose iteration budget runs out, or whose a-posteriori residual
    exceeds KRYLOV_RESIDUAL.  Only the LU path refuses with
    `IllConditioned` (estimate above COND_LIMIT).  `iterations` is 0 on
    the LU path.
    """
    J = jd.J
    n = contour.n_nodes
    if J.shape[0] != n:
        raise ValueError("jump data does not match the contour nodes")
    posdef_min = None
    if np.any(jd.nodes.imag == 0.0):
        posdef_min = posdef_check(jd)
        if posdef_min <= 0.0:
            raise PosdefViolated(
                f"real-axis Hermitian-part minimum {posdef_min:.3e}")

    IJ = np.eye(2) - J                                   # (N, 2, 2)
    ij0, ij1 = IJ[:, 0].copy(), IJ[:, 1].copy()          # its rows

    def op(v):
        """q - C+[q(I-J)] for a row q (N, 2), flattened to v."""
        q = v.reshape(n, 2)
        return (q - contour.cauchy_apply(q[:, :1] * ij0 + q[:, 1:] * ij1)).ravel()

    b = contour.cauchy_apply(ij0).ravel()
    rnorm = max(float(np.max(np.abs(b))), 1e-300)

    # pole circles stay on LU: there the right-hand side can lie in a small
    # invariant subspace, and a Hessenberg estimate started from it reads
    # ~1 where kappa is astronomically large
    krylov = None
    if contour.real_axis:
        krylov = _gmres(op, b, COND_LIMIT / 1e3)
    if krylov is not None:
        v, cond, iterations = krylov
        res = float(np.max(np.abs(op(v) - b)))
    if krylov is None or res > KRYLOV_RESIDUAL * rnorm:
        v, cond = _lu_solve(contour.cauchy_plus(), IJ, b)
        iterations = 0
        res = float(np.max(np.abs(op(v) - b)))

    # E = -4i m12, m the z^{-1} moment (1/2 pi i) int (I+Q)(J-I) ds; sign
    # fixed by the linearized (Born) limit against the forward transform
    q = v.reshape(n, 2)
    m12 = contour.weights @ ((1.0 + q[:, 0]) * J[:, 0, 1]
                             + q[:, 1] * (J[:, 1, 1] - 1.0)) / (2j * np.pi)
    return RHResult(Q=q, E=-4j * m12,
                    diagnostics={"residual": res, "residual_rel": res / rnorm,
                                 "cond": cond, "iterations": iterations,
                                 "posdef_min": posdef_min})


def _lu_solve(CP, IJ, b):
    """Dense LU of the 2N x 2N operator of one row, with the `zgecon`
    1-norm condition estimate.  Returns (x, cond) for the flattened
    right-hand side b."""
    from scipy.linalg import lu_factor, lu_solve   # loaded by an LU stamp only
    from scipy.linalg.lapack import zgecon

    n = CP.shape[0]
    # T[(i,b),(j,a)] = CP[i,j] * (I-J)[j][a,b]
    T = np.einsum("ij,jab->ibja", CP, IJ).reshape(2 * n, 2 * n)
    A = np.eye(2 * n, dtype=complex) - T

    lu, piv = lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond, _ = zgecon(lu, anorm)
    if rcond == 0.0 or 1.0 / rcond > COND_LIMIT:
        raise IllConditioned(f"condition estimate {1.0 / max(rcond, 1e-300):.2e}")
    return lu_solve((lu, piv), b), 1.0 / rcond


def _gmres(op, b, cond_max):
    """Unrestarted GMRES for op(x) = b from x = 0 (Saad & Schultz 1986).

    Arnoldi by classical Gram-Schmidt applied twice; Givens rotations
    track the residual norm.  Returns (x, cond, iterations), with cond =
    s_max/s_min of the (k+1) x k Hessenberg matrix, or None when the
    right-hand side vanishes, the budget runs out, or cond > cond_max.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return None
    m = KRYLOV_BUDGET
    V = np.empty((m + 1, b.size), dtype=complex)
    H = np.zeros((m + 1, m), dtype=complex)       # Arnoldi Hessenberg
    U = np.zeros((m, m), dtype=complex)           # its rotated triangle
    cs, sn = [], []
    g = [complex(beta)]                           # rotated beta e1
    V[0] = b / beta
    for k in range(m):
        w = op(V[k])
        Vk = V[:k + 1]
        h = (Vk @ w.conj()).conj()
        w -= h @ Vk
        h2 = (Vk @ w.conj()).conj()
        w -= h2 @ Vk
        h += h2
        hn = float(np.linalg.norm(w))
        H[:k + 1, k] = h
        H[k + 1, k] = hn

        col = h.tolist()
        for i in range(k):
            a, d = col[i], col[i + 1]
            col[i] = cs[i] * a + sn[i] * d
            col[i + 1] = -sn[i].conjugate() * a + cs[i] * d
        a = col[k]
        r = float(np.hypot(abs(a), hn))
        if a == 0:
            c, s = 0.0, 1.0
        else:
            c, s = abs(a) / r, (a / abs(a)) * hn / r
        cs.append(c)
        sn.append(s)
        col[k] = c * a + s * hn
        U[:k + 1, k] = col
        g.append(-s.conjugate() * g[k])
        g[k] = c * g[k]

        if abs(g[k + 1]) <= KRYLOV_RTOL * beta or hn == 0.0:
            sv = np.linalg.svd(H[:k + 2, :k + 1], compute_uv=False)
            cond = float(sv[0] / sv[-1])
            if cond > cond_max:
                return None
            y = np.linalg.solve(U[:k + 1, :k + 1], np.array(g[:k + 1]))
            return y @ Vk, cond, k + 1
        V[k + 1] = w / hn
    return None


# ----------------------------------------------------------------------
# pure-soliton residue algebra
# ----------------------------------------------------------------------

def residue_constants(poles, profile, t, x):
    """(z_j, c_j) of poles [(z_j, m_j)] at the stamps (t, x), which
    broadcast together: c_j = m_j e^{-2i(z_j t - x eta(z_j))} on a
    trailing axis of length p, every z_j above the axis.  A c_j that
    overflows is refused (`SingularResidueSystem`)."""
    zj = np.array([z for z, _ in poles], dtype=complex)
    mj = np.array([m for _, m in poles], dtype=complex)
    if np.any(zj.imag <= 0):
        raise SingularResidueSystem("poles must lie strictly above the axis")
    t = np.asarray(t, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        cj = mj * np.exp(-2j * (zj * t - x * eta_eval(profile, zj)))
    if not np.all(np.isfinite(cj)):
        raise SingularResidueSystem(
            "residue constant c_j overflows (2 Im z_j t beyond float range)")
    return zj, cj


def soliton_closed_form(poles, profile, t, x):
    """Reflectionless field from the residue conditions, at every stamp
    of t and x broadcast together.

    poles: list of (z_j in C+, m_j).  M = I + sum_j (A_j/(z - z_j)
    + B_j/(z - z_j*)) with A_j = [0, a_j] and B_j its sigma2-conjugate.
    With a_j = (u_j, v_j) and M_jk = c_j / (z_j - conj z_k), the
    antilinear residue conditions u - M conj(v) = c, v + M conj(u) = 0
    are complex-linear in (u, w = conj v):
    [[I, -M], [conj M, I]] [u; w] = [c; 0], one 2p x 2p system per
    stamp, all solved by one batched call.  Returns (E, a), a of shape
    (..., p, 2) holding (u, conj w).
    """
    zj, cj = residue_constants(poles, profile, t, x)
    p = zj.size
    M = cj[..., :, None] / (zj[:, None] - np.conj(zj)[None, :])
    eye = np.broadcast_to(np.eye(p), M.shape)
    A = np.block([[eye, -M], [np.conj(M), eye]])
    rhs = np.concatenate([cj, np.zeros_like(cj)], axis=-1)[..., None]
    try:
        sol = np.linalg.solve(A, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularResidueSystem(str(exc)) from exc
    u, w = sol[..., :p], sol[..., p:]
    # z^{-1} moment: column-2 residues A_j contribute u_j at entry (1,2)
    return -4j * np.sum(u, axis=-1), np.stack([u, np.conj(w)], axis=-1)


def soliton_circle_jump(poles, profile, t, x, contour):
    """Jump data on pole-enclosing clockwise circles equivalent to the
    residue conditions: J = I - c_j/(z - z_j) E12 around z_j and
    J = I + conj(c_j)/(z - z_j*) E21 around z_j*."""
    zj, cj = residue_constants(poles, profile, t, x)
    nodes = contour.nodes
    J = np.broadcast_to(np.eye(2, dtype=complex),
                        (nodes.size, 2, 2)).copy()
    for p in contour.panels:
        if p.kind != "circle":
            continue
        i0 = int(np.nonzero(nodes == p.nodes[0])[0][0])
        idx = np.arange(i0, i0 + p.nodes.size)
        if p.center.imag > 0:
            j = int(np.argmin(np.abs(zj - p.center)))
            J[idx, 0, 1] = -cj[j] / (p.nodes - zj[j])
        else:
            j = int(np.argmin(np.abs(np.conj(zj) - p.center)))
            J[idx, 1, 0] = np.conj(cj[j]) / (p.nodes - np.conj(zj[j]))
    return JumpData(t=float(t), x=float(x), nodes=nodes, J=J)
