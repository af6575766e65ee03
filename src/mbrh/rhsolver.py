"""Contour discretization and the singular-integral-equation solver.

The conjugation problem M- = M+ J on the real detuning axis, with simple
poles of M at the zeros z_j of a and their conjugates, is solved for the
first row m of M, whose z^{-1} moment gives the field E = -4i m12.  With
m = e1 + P + C[mu(I-J)], mu = m+ on the axis, C the axis Cauchy
transform and P the pole part (residues u_j of m12 at z_j, r_j of m11
at conj z_j), the Cauchy part q = C+[mu(I-J)] solves
q - C+[q(I-J)] = C+[(e1 + P)(I-J)], and the residue conditions
u_j = c_j m11(z_j), r_j = -conj(c_j) m12(conj z_j) close it: the jump
specialized to residue conditions (Deift & Zhou 1993).

The axis is cut into Gauss-Legendre panels (`ContourSigma`: the panel
edges and the real nodes and weights, panel by panel), on which
C+ = I/2 + iH with H real, built from those arrays.  One operator
applies C+ (`ContourSigma.cauchy_apply`) with one of two real kernels:
H on the whole axis, or H+ over H- (`kernel_fold`) on the nodes s > 0
of mirror-symmetric data.  The row operator is solved matrix-free by
GMRES on it, with a Hessenberg (kappa_2 lower bound) condition
certificate, for 1 + 2p right-hand sides; the residues then follow
from one complex 2p x 2p system (`sie_solve`).
A run's stamps solve on the panels where the jump differs from I
(`jump_window`).
Any stamp the Krylov path cannot certify is solved densely: the matrix
of the same operator, inverted once, with its exact 1-norm condition.

Pure-soliton (reflectionless) data bypasses the contour entirely: its
residue conditions are one complex 2p x 2p linear system per stamp, and
a whole (t, x) lattice is solved by one batched call.  A residue
constant c_j that overflows (2 Im z_j t past about 709), and a residue
system that does (a pole within about 1e-308 of the axis), are refused.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .broadening import LAM_WINDOW, eta_eval, mirror_unfold
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

N_PANELS = 24               # default real-axis panels
NODES_PER_PANEL = 16        # default Gauss-Legendre nodes per panel


@dataclass
class ContourSigma:
    """Real-axis panels: edges left to right, nodes and weights by panel."""
    edges: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray         # reproduce int ds
    _H: np.ndarray = field(default=None, repr=False)    # see kernel
    _H_fold: np.ndarray = field(default=None, repr=False)   # see kernel_fold

    @property
    def n_nodes(self):
        return self.nodes.size

    def kernel(self):
        """The one cached N x N matrix: C+ is exactly I/2 + iH with H
        real, and H is kept."""
        if self._H is None:
            self._H = _build_cauchy_plus(self)
        return self._H

    def kernel_fold(self):
        """H+ stacked over H-, H+- = H[P, P] +- H[P, P'] on the nodes P of
        s > 0 of a contour mirror-symmetric about 0, P' their mirrors: for
        data with f(-s) = conj f(s), C+f = f/2 - H- Im f + i H+ Re f on
        P.  Built once from the cached H."""
        if self._H_fold is None:
            H, h = self.kernel(), self.n_nodes // 2
            A, B = H[h:, h:], H[h:, :h][:, ::-1]
            self._H_fold = np.vstack([A + B, A - B])
        return self._H_fold

    def cauchy_apply(self, g):
        """C+g = g/2 - H- Im g + i H+ Re g for nodal data g (m, k), by one
        real product R = HH G on the float view G of g: H+ G is R[:m],
        H- G is R[-m:].  On all N nodes HH is `kernel` and H+ = H- = H;
        on the nodes s > 0 of mirror-symmetric data (m = N/2) it is
        `kernel_fold`."""
        m = g.shape[0]
        HH = self.kernel_fold() if 2 * m == self.n_nodes else self.kernel()
        G = np.ascontiguousarray(g).view(float)
        R = HH @ G
        out = 0.5 * G
        out[:, 0::2] -= R[-m:, 1::2]            # - H- Im g
        out[:, 1::2] += R[:m, 0::2]             # + H+ Re g
        return out.view(complex)


def _barycentric_diff(x):
    """Differentiation matrices for distinct nodes on the last axis of x."""
    diag = np.eye(x.shape[-1], dtype=bool)
    diffs = x[..., :, None] - x[..., None, :]
    diffs[..., diag] = 1.0
    lam = 1.0 / np.prod(diffs, axis=-1)
    D = (lam[..., None, :] / lam[..., :, None]) / diffs
    D[..., diag] = 0.0
    D[..., diag] = -np.sum(D, axis=-1)
    return D


def contour_build(window=LAM_WINDOW, n_panels=N_PANELS,
                  nodes_per_panel=NODES_PER_PANEL) -> ContourSigma:
    """Equal real-axis panels on window, nodes_per_panel Gauss nodes each."""
    if n_panels < 1:
        raise EmptyContour("no panels requested")
    edges = np.linspace(window[0], window[1], n_panels + 1)
    xg, wg = leggauss(nodes_per_panel)
    a, b = edges[:-1, None], edges[1:, None]
    return ContourSigma(edges=edges,
                        nodes=(0.5 * (a + b) + 0.5 * (b - a) * xg).ravel(),
                        weights=(0.5 * (b - a) * wg).ravel())


def median(vals):
    """np.median of a 1-d array, NaN included, without its numpy.ma import."""
    v = np.sort(vals)              # a NaN sorts last
    mid = 0.5 * (v[(v.size - 1) // 2] + v[v.size // 2])
    return float(v[-1] if np.isnan(v[-1]) else mid)


TAIL_TOL = 1e-8             # outer panels with max |J - I| at most this
                            # times its peak over the axis are dropped


def jump_window(contour, J):
    """The contiguous run of panels on which the jump differs from I.

    J (n, N, 2, 2) holds jumps on the contour nodes, one per x column of
    a lattice; |J - I| does not depend on t entrywise, so n jumps at one
    t bound the whole lattice.  rel is max |J - I| on a panel relative to
    its peak over the axis.  The outer panels with rel <= TAIL_TOL are
    dropped; none is when the peak is 0.  Returns (sub-contour, slice of
    its nodes, report).  The sub-contour has the kept panels' nodes and
    weights and builds its own H; with every panel kept it is contour
    itself, H and all.  The report holds the `configured` and `kept`
    [lo, hi], `dropped_max` (the largest rel of a dropped panel, 0 with
    none), `edge_max` (that of the configured window's two outermost
    panels) and `tail` {p50, max} over the kept panels of the largest
    Legendre coefficient of degree m - 2 or m - 1 (m nodes per panel) of
    an entry of J - I on a panel, relative to the peak: the panel's
    resolution of the jump (Trefethen, ATAP, ch. 7-8)."""
    p = contour.edges.size - 1
    D = J - np.eye(2)
    dev = np.abs(D).max(axis=(0, 2, 3)).reshape(p, -1).max(axis=1)
    peak = float(dev.max())
    rel = dev / (peak or 1.0)
    kept = np.flatnonzero(rel > TAIL_TOL) if peak > 0.0 else [0, p - 1]
    k0, k1 = int(kept[0]), int(kept[-1]) + 1
    m = contour.n_nodes // p
    keep = slice(k0 * m, k1 * m)
    sub = contour if (k0, k1) == (0, p) else ContourSigma(
        edges=contour.edges[k0:k1 + 1], nodes=contour.nodes[keep],
        weights=contour.weights[keep])
    xg, wg = leggauss(m)
    deg = np.arange(max(m - 2, 0), m)
    # c_n = (2n + 1)/2 sum_k w_k P_n(x_k) f(x_k), exact on the Gauss nodes
    proj = legvander(xg, m - 1)[:, deg] * wg[:, None] * (deg + 0.5)
    f = D[:, keep].reshape(J.shape[0], k1 - k0, m, 4)
    tail = np.abs(np.einsum("xpke,kn->xpne", f, proj)).max(
        axis=(0, 2, 3)) / (peak or 1.0)
    e = contour.edges
    dropped = np.concatenate([rel[:k0], rel[k1:]])
    report = {"configured": [float(e[0]), float(e[-1])],
              "kept": [float(e[k0]), float(e[k1])],
              "dropped_max": float(dropped.max(initial=0.0)),
              "edge_max": float(max(rel[0], rel[-1])),
              "tail": {"p50": median(tail), "max": float(tail.max())}}
    return sub, keep, report


def _build_cauchy_plus(contour):
    """The real H of the discrete plus-side Cauchy operator C+ = I/2 + iH.

    K is plain quadrature of 1/(s-z) off the diagonal; on it, the exact
    p.v. of the constant (log of the endpoint ratio) minus the row sum
    (global subtraction), plus w_i f'(z_i) by a nodal differentiation
    matrix per panel.  K/(2 pi i) = iH, so H = -K/(2 pi).
    """
    z, w = contour.nodes, contour.weights
    K = z[None, :] - z[:, None]
    with np.errstate(divide="ignore"):
        np.divide(w, K, out=K)
    np.fill_diagonal(K, 0.0)

    # subtraction: move sum_j w_j/(z_j - z_i) onto the diagonal
    a, b = contour.edges[0], contour.edges[-1]
    np.fill_diagonal(K, np.log((b - z) / (z - a)) - np.sum(K, axis=1))

    # removable diagonal term: w_i f'(z_i), panel-spectral derivative
    p = contour.edges.size - 1
    zp, wp = z.reshape(p, -1), w.reshape(p, -1)
    blocks = K.reshape(p, zp.shape[1], p, zp.shape[1])     # a view of K
    on = np.arange(p)
    blocks[on, :, on, :] += wp[..., None] * _barycentric_diff(zp)
    K /= -2.0 * np.pi
    return K


# ----------------------------------------------------------------------
# singular integral equation
# ----------------------------------------------------------------------

COND_LIMIT = 1e12           # condition above which a stamp is refused
KRYLOV_RTOL = 1e-15         # GMRES stops at residual norm <= this * ||b||_2
KRYLOV_BUDGET = 100         # Arnoldi steps before the dense fallback
KRYLOV_RESIDUAL = 1e-13     # a-posteriori max-norm residual, relative to the right-hand side


@dataclass
class RHResult:
    Q: np.ndarray               # (N, 2) Cauchy part q of the first row of M+ - I
    E: complex
    diagnostics: dict = field(default_factory=dict)
    residues: np.ndarray = None     # (u_j, then r_j) of the pole part, with poles


def sie_solve(contour: ContourSigma, jd: JumpData, residues=None) -> RHResult:
    """Collocation solve for the first row of M: the Cauchy part q of
    q - C+[q(I-J)] = C+[(e1 + P)(I-J)], whose 2N x 2N operator A each
    row shares, and the residues of the pole part P.

    residues: the stamp's (z_j, c_j) (`residue_constants`), or None.
    The jump must have a positive-definite Hermitian part
    (`PosdefViolated`).  A is solved for b0 = C+[e1(I-J)] and per pole
    for (C+[g1] - C[g1](z_j))/(lam - z_j) and (C+[g0] - C[g0](conj z_j))
    /(lam - conj z_j), g_a row a of I - J: partial fractions, so no pole
    term is sampled on the nodes.  Off the axis C[g] is a plain Gauss sum
    (its zeta-derivative at the pole itself).  The residue conditions are
    then a 2p x 2p system, each row divided by max(1, |c_j|); its SVD
    condition is `residue_cond`, refused above COND_LIMIT
    (`IllConditioned`), and a non-finite or singular system is refused
    (`SingularResidueSystem`).

    Each right-hand side is solved by unrestarted GMRES (`_gmres`):
    `cond` is the largest s_max/s_min of their Hessenberg matrices, a
    lower bound on kappa_2(A), and `iterations` their total Arnoldi
    steps.  If any estimate exceeds COND_LIMIT/1e3, a budget runs out or
    a residual exceeds KRYLOV_RESIDUAL, one dense solve of the same
    operator solves them all (`_dense_solve`; `lu`, `iterations` 0,
    `cond` the exact kappa_1(A)), refusing above COND_LIMIT
    (`IllConditioned`).  `residual_rel` is the largest residual relative
    to its right-hand side.

    A pole-free jump given on the contour's nodes s > 0 alone, the upper
    half P of a contour mirror-symmetric about 0 with J(-s) = conj J(s)
    on the rest, is solved folded: q(-s) = conj q(s), and the same
    operator runs on P with `cauchy_apply`'s folded kernel.  It is
    real-linear there, so GMRES runs on the float view (Re q, Im q),
    whose inner product is half the whole axis's on mirrored data: the
    Krylov space, `cond` and `iterations` are the whole solve's.  E is
    real, and so is the matrix of a folded dense solve.
    """
    J = jd.J
    n, m = contour.n_nodes, J.shape[0]
    folded = residues is None and 2 * m == n
    if m != n and not folded:
        raise ValueError("jump data does not match the contour nodes")
    posdef_min = posdef_check(jd)
    if posdef_min <= 0.0:
        raise PosdefViolated(f"real-axis Hermitian-part minimum {posdef_min:.3e}")
    diagnostics = {"posdef_min": posdef_min, "residue_cond": None}
    IJ = np.eye(2) - J                                   # (m, 2, 2)
    ij0, ij1 = IJ[:, 0].copy(), IJ[:, 1].copy()          # its rows

    def op(v):
        """q - C+[q(I-J)] for a row q (m, 2), flattened to v (its float
        view when folded)."""
        q = v.view(complex).reshape(m, 2)
        return (q - contour.cauchy_apply(q[:, :1] * ij0 + q[:, 1:] * ij1)
                ).ravel().view(v.dtype)

    B = [contour.cauchy_apply(ij0)]
    if residues is not None:
        # unknown l: u_j (pole z_j, density row 2), then r_j (conj z_j, row 1)
        zj, cj = residues
        p = zj.size
        zeta = np.concatenate([zj, np.conj(zj)])
        row, lam = np.repeat([1, 0], p), contour.nodes
        kern = contour.weights / (lam - zeta[:, None]) / (2j * np.pi)
        # [i, a, :]: C[g_a](zeta_i) and its zeta-derivative, Gauss sums
        Cz, Dz = [(K @ IJ.reshape(n, 4)).reshape(-1, 2, 2)
                  for K in (kern, kern / (lam - zeta[:, None]))]
        CPg = (B[0], contour.cauchy_apply(ij1))
        B += [(CPg[a] - Cz[l, a]) / (lam - zeta[l])[:, None]
              for l, a in enumerate(row)]
    B = [b.ravel().view(float if folded else complex) for b in B]
    krylov = _krylov_solve(op, B)
    diagnostics["lu"] = krylov is None      # one dense solve for all of B
    res, V, conds, its = zip(*(krylov or _dense_solve(op, B)))
    V, cond, iterations = np.array(V), max(conds), sum(its)
    res_rel = max(r / max(_max_abs(b), 1e-300) for r, b in zip(res, B))
    Q = V.view(complex).reshape(len(B), m, 2)
    q, pole_m12, w = Q[0], 0.0, None
    if residues is not None:
        CQ = kern @ (Q[..., :1] * ij0 + Q[..., 1:] * ij1)   # C[q_l(I-J)](zeta_i)
        w, diagnostics["residue_cond"] = _residue_solve(zeta, cj, Cz, Dz, CQ)
        q = q + np.tensordot(w, Q[1:], axes=1)
        pole_m12 = np.sum(w[:p]) - w @ Cz[np.arange(2 * p), row, 1]

    # E = -4i m12, m the z^{-1} moment: sum u_j plus (1/2 pi i) int
    # (e1 + P + q)(J-I) ds; sign fixed by the linearized (Born) limit
    # against the forward transform.  Folded, the integral over s < 0 is
    # the conjugate of that over s > 0, and E = -(4/pi) Re sum_P w f.
    f = (1.0 + q[:, 0]) * J[:, 0, 1] + q[:, 1] * (J[:, 1, 1] - 1.0)
    E = (complex(-4.0 / np.pi * (contour.weights[n - m:] @ f.real)) if folded
         else -4j * (contour.weights @ f / (2j * np.pi) + pole_m12))
    return RHResult(Q=mirror_unfold(q, n) if folded else q, E=E,
                    diagnostics={"residual": max(res), "residual_rel": res_rel,
                                 "cond": cond, "iterations": iterations,
                                 **diagnostics},
                    residues=w)


def _max_abs(v):
    """Largest modulus of the complex entries of v, or of the complex
    numbers whose float view a real v is."""
    return float(np.max(np.abs(v.view(complex))))


def _krylov_solve(op, B):
    """GMRES solutions of op(v) = b for the flat right-hand sides b of B,
    as (residual, v, cond, iterations) each, or None as soon as one is
    not certified: cond above COND_LIMIT/1e3, the budget run out, or a
    max-norm residual above KRYLOV_RESIDUAL relative to b."""
    out = []
    for b in B:
        krylov = _gmres(op, b, COND_LIMIT / 1e3)
        if krylov is None:
            return None
        res = _max_abs(op(krylov[0]) - b)
        if res > KRYLOV_RESIDUAL * max(_max_abs(b), 1e-300):
            return None
        out.append((res, *krylov))
    return out


def _residue_solve(zeta, cj, Cz, Dz, CQ):
    """Residues w = (u_j, r_j), from u_j = c_j m11(z_j) and
    r_j = -conj(c_j) m12(conj z_j) with m = e1 + P + C[(e1 + P + q)(I-J)],
    q = q_0 + sum_l w_l q_l; each row divided by max(1, |c_j|).

    zeta = (z_j, conj z_j); Cz and Dz [i, a, :] hold C[g_a] at zeta_i
    and its derivative, g_a row a of I - J, and CQ [l, i, :] holds
    C[q_l(I-J)](zeta_i).  Returns (w, SVD condition of the scaled
    2p x 2p matrix)."""
    k = np.arange(zeta.size)
    row = np.repeat([1, 0], cj.size)    # the density row of unknown l
    comp = 1 - row                      # the entry read: m11 at z_j, m12 at conj z_j
    d = np.concatenate([cj, -np.conj(cj)])
    s = 1.0 / np.maximum(1.0, np.abs(d))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dz = zeta[:, None] - zeta[None, :]
        # [i, l]: C[g_l/(s - zeta_l)](zeta_i) by partial fractions, the
        # derivative C'[g_l](zeta_l) where i = l; P(zeta_i); C[q_l(I-J)]
        G = (Cz[k[:, None], row, comp[:, None]] - Cz[k, row, comp[:, None]]) / dz
        G[k, k] = Dz[k, row, comp]
        G += np.where(row == comp[:, None], 1.0 / dz, 0.0)
        G += CQ[1:, k, comp].T
        A = np.diag(s) - (s * d)[:, None] * G
        rhs = s * d * ((comp == 0) + Cz[k, 0, comp] + CQ[0, k, comp])
    w = _residue_linsolve(A, rhs)
    sv = np.linalg.svd(A, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > COND_LIMIT:
        raise IllConditioned(f"residue system condition {cond:.2e}")
    return w, cond


def _dense_solve(op, B):
    """op(v) = b for the flat right-hand sides b of B, by the inverse of
    the matrix A of op: its columns op(e_k), real on the float view of a
    folded stamp and complex otherwise.  Returns (residual, v, cond, 0)
    for each b, as `_krylov_solve` does, with cond the exact kappa_1 =
    ||A||_1 ||A^-1||_1, refused above COND_LIMIT, as is a singular A
    (`IllConditioned`)."""
    A = np.array([op(e) for e in np.eye(B[0].size, dtype=B[0].dtype)]).T
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"dense operator singular ({exc})") from exc
    cond = float(np.linalg.norm(A, 1) * np.linalg.norm(Ainv, 1))
    if not cond <= COND_LIMIT:
        raise IllConditioned(f"dense operator condition {cond:.2e}")
    return [(_max_abs(op(v) - b), v, cond, 0)
            for v, b in zip(np.stack(B) @ Ainv.T, B)]


def _gmres(op, b, cond_max):
    """Unrestarted GMRES for op(x) = b from x = 0 (Saad & Schultz 1986).

    Arnoldi by classical Gram-Schmidt applied twice; Givens rotations
    track the residual norm.  It runs in the dtype of b, real or complex.
    Returns (x, cond, iterations), with cond = s_max/s_min of the
    (k+1) x k Hessenberg matrix, or None when the budget runs out or
    cond > cond_max.  A vanishing right-hand side has the solution 0,
    after no step, with cond 1.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 1.0, 0
    m = KRYLOV_BUDGET
    V = np.empty((m + 1, b.size), dtype=b.dtype)
    H = np.zeros((m + 1, m), dtype=b.dtype)       # Arnoldi Hessenberg
    U = np.zeros((m, m), dtype=b.dtype)           # its rotated triangle
    cs, sn = [], []
    g = [complex(beta) if np.iscomplexobj(b) else beta]    # rotated beta e1
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


def _residue_linsolve(A, rhs):
    """np.linalg.solve(A, rhs) of a residue system, refusing one that is
    not finite (a pole within about 1e-308 of the axis makes
    1/(z_j - conj z_k) overflow) or singular (`SingularResidueSystem`)."""
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        raise SingularResidueSystem(
            "residue system not finite (a pole too near the real axis)")
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResidueSystem(str(exc)) from exc


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
    (..., p, 2) holding (u, conj w).  A non-finite or singular system is
    refused (`_residue_linsolve`).
    """
    zj, cj = residue_constants(poles, profile, t, x)
    p = zj.size
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        M = cj[..., :, None] / (zj[:, None] - np.conj(zj)[None, :])
    eye = np.broadcast_to(np.eye(p), M.shape)
    A = np.block([[eye, -M], [np.conj(M), eye]])
    rhs = np.concatenate([cj, np.zeros_like(cj)], axis=-1)[..., None]
    sol = _residue_linsolve(A, rhs)[..., 0]
    u, w = sol[..., :p], sol[..., p:]
    # z^{-1} moment: column-2 residues A_j contribute u_j at entry (1,2)
    return -4j * np.sum(u, axis=-1), np.stack([u, np.conj(w)], axis=-1)
