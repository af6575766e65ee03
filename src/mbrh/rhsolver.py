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
from one complex 2p x 2p system.  A block of stamps solves in lockstep
(`sie_solve_block`): one GMRES steps the right-hand sides of all its
stamps, each with its own operator and stopping test, through one
kernel product per step.  It takes the block's jumps as one array
J (s, N, 2, 2) and returns arrays: E, q and the per-stamp certificates.
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

from .broadening import LAM_WINDOW, eta_eval
from .errors import (
    EmptyContour,
    IllConditioned,
    PosdefViolated,
    SingularResidueSystem,
)
from .mat2 import dagger


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
        """C+g = g/2 - H- Im g + i H+ Re g for nodal data g (m, k), on the
        float view G of g.  On all N nodes H+ = H- = H (`kernel`), and one
        real product H G gives both.  On the nodes s > 0 of
        mirror-symmetric data (m = N/2), H+ and H- are the halves of
        `kernel_fold`, and only the two products read are formed, each on
        a contiguous copy of its columns of G."""
        m = g.shape[0]
        G = np.ascontiguousarray(g).view(float)
        out = 0.5 * G
        if 2 * m == self.n_nodes:
            HH = self.kernel_fold()             # H+ over H-
            out[:, 0::2] -= HH[m:] @ np.ascontiguousarray(G[:, 1::2])
            out[:, 1::2] += HH[:m] @ np.ascontiguousarray(G[:, 0::2])
        else:
            R = self.kernel() @ G
            out[:, 0::2] -= R[:, 1::2]          # - H Im g
            out[:, 1::2] += R[:, 0::2]          # + H Re g
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
KRYLOV_START = 16           # Arnoldi steps the Krylov arrays first hold; they
                            # double as the steps need, up to KRYLOV_BUDGET


def posdef_check(J):
    """Smallest eigenvalue of the Hermitian part of the jumps J (s, N, 2, 2)
    over their (real) nodes, one per stamp (s,)."""
    H = 0.5 * (J + dagger(J))
    mean = 0.5 * (H[..., 0, 0] + H[..., 1, 1]).real
    rad = np.sqrt((0.5 * (H[..., 0, 0] - H[..., 1, 1]).real) ** 2
                  + np.abs(H[..., 0, 1]) ** 2)
    return np.min(mean - rad, axis=-1)


def sie_solve_block(contour: ContourSigma, J, residues=None):
    """Collocation solves for the first row of M at a block of stamps: at
    each, the Cauchy part q of q - C+[q(I-J)] = C+[(e1 + P)(I-J)], whose
    2N x 2N operator A each of the stamp's rows shares, and the residues
    of the pole part P.

    J holds the block's jumps (s, N, 2, 2) (`jump_phased`); residues:
    (z_j, c_j), c_j (s, p) one row per stamp (`residue_constants`), or
    None.  Each jump must have a positive-definite Hermitian part
    (`posdef_check`, one minimum per stamp; `PosdefViolated`).  A is
    solved for b0 = C+[e1(I-J)] and per pole for (C+[g1] -
    C[g1](z_j))/(lam - z_j) and (C+[g0] - C[g0](conj z_j))/(lam - conj
    z_j), g_a row a of I - J: partial fractions, so no pole term is
    sampled on the nodes.  Off the axis C[g] is a plain
    Gauss sum (its zeta-derivative at the pole itself).  The residue
    conditions are then a 2p x 2p system, each row divided by
    max(1, |c_j|); its SVD condition is `residue_cond`, refused above
    COND_LIMIT (`IllConditioned`), and a non-finite or singular system is
    refused (`SingularResidueSystem`).

    Returns (E, Q, diag): E (s,), q (s, m, 2) on the m nodes solved, and
    the per-stamp arrays `residual_rel`, `cond`, `iterations`,
    `posdef_min`, `lu` and, with poles, `residue_cond` and `residues`
    (u_j, then r_j), and the block's `steps` and `row_steps` in diag.

    The block's 1 + 2p right-hand sides per stamp are solved together by
    unrestarted GMRES in lockstep (`_gmres`): one kernel product
    (`cauchy_apply`) applies every row's operator per Arnoldi step, and a
    row leaves the block when its own stopping test passes.  `steps`
    counts the lockstep steps, the largest of the rows' own, and
    `row_steps` sums the rows' own steps.  A stamp's
    `cond` is the largest s_max/s_min of its rows' Hessenberg matrices,
    a lower bound on kappa_2(A), and `iterations` their total Arnoldi
    steps.  If any estimate exceeds COND_LIMIT/1e3, a budget runs out or
    a residual exceeds KRYLOV_RESIDUAL, one dense solve of that stamp's
    operator solves all its right-hand sides (`_dense_solve`; `lu`,
    `iterations` 0, `cond` the exact kappa_1(A)), refusing above
    COND_LIMIT (`IllConditioned`).  `residual_rel` is the largest
    residual relative to its right-hand side.  The dense and residue
    solves run stamp by stamp, so a refusal names the earliest refusing
    stamp of the block: the stamps from the first posdef violation on
    are not solved, and those before it are.

    A pole-free jump given on the contour's nodes s > 0 alone, the upper
    half P of a contour mirror-symmetric about 0 with J(-s) = conj J(s)
    on the rest, is solved folded: q(-s) = conj q(s), and the same
    operator runs on P with `cauchy_apply`'s folded kernel.  It is
    real-linear there, so GMRES runs on the float view (Re q, Im q),
    whose inner product is half the whole axis's on mirrored data: the
    Krylov space, `cond` and `iterations` are the whole solve's.  E is
    real, and so is the matrix of a folded dense solve; Q is left on P.
    """
    n, m = contour.n_nodes, J.shape[1]
    folded = residues is None and 2 * m == n
    if m != n and not folded:
        raise ValueError("jump data does not match the contour nodes")
    posdef = posdef_check(J)
    bad = np.flatnonzero(posdef <= 0.0)
    s = int(bad[0]) if bad.size else J.shape[0]     # the stamps solved
    IJ = np.eye(2) - J[:s]                               # (s, m, 2, 2)
    ij0, ij1 = IJ[:, :, 0].copy(), IJ[:, :, 1].copy()    # its rows

    B = [_cplus_rows(contour, ij0)]
    if residues is not None:
        # unknown l: u_j (pole z_j, density row 2), then r_j (conj z_j, row 1)
        zj, cj = residues
        p = zj.size
        zeta = np.concatenate([zj, np.conj(zj)])
        row, lam = np.repeat([1, 0], p), contour.nodes
        kern = contour.weights / (lam - zeta[:, None]) / (2j * np.pi)
        # [stamp, i, a, :]: C[g_a](zeta_i) and its zeta-derivative, Gauss sums
        Cz, Dz = [(K @ IJ.reshape(s, n, 4)).reshape(s, -1, 2, 2)
                  for K in (kern, kern / (lam - zeta[:, None]))]
        CPg = (B[0], _cplus_rows(contour, ij1))
        B += [(CPg[a] - Cz[:, l, a][:, None]) / (lam - zeta[l])[:, None]
              for l, a in enumerate(row)]
    k = len(B)                                  # right-hand sides per stamp
    B = np.stack(B, axis=1).reshape(s * k, 2 * m)    # row i k + l: stamp i's l
    B = B.view(float) if folded else B
    stamp = np.arange(s).repeat(k)

    def op(V, rows):
        """q - C+[q(I-J)] for rows q (m, 2) flattened to V (their float
        view when folded), each with the jump of its row of B."""
        q, i = V.view(complex).reshape(len(rows), m, 2), stamp[rows]
        return (q - _cplus_rows(contour, q[..., :1] * ij0[i]
                                + q[..., 1:] * ij1[i])
                ).reshape(len(rows), 2 * m).view(V.dtype)

    X, cond, its = _gmres(op, B, COND_LIMIT / 1e3)
    diag = {"steps": int(its.max(initial=0)), "row_steps": int(its.sum())}
    done, res = np.flatnonzero(~np.isnan(cond)), np.full(s * k, np.inf)
    res[done] = _max_abs(op(X[done], done) - B[done])
    bmax = np.maximum(_max_abs(B), 1e-300)
    lu = ~(res <= KRYLOV_RESIDUAL * bmax).reshape(s, k).all(axis=1)

    Q = X.view(complex).reshape(s, k, m, 2)     # q_l of row i k + l
    pole_m12 = np.zeros(s, dtype=complex)
    if residues is not None:
        W, residue_cond = np.empty((s, 2 * p), dtype=complex), np.empty(s)
    for i in np.flatnonzero(lu | (residues is not None)):
        rows = slice(i * k, (i + 1) * k)
        if lu[i]:       # one dense solve for all of the stamp's rows
            X[rows], res[rows], cond[rows] = _dense_solve(
                lambda v: op(v[None], [i * k])[0], B[rows])
            its[rows] = 0
        if residues is not None:
            CQ = kern @ (Q[i, ..., :1] * ij0[i] + Q[i, ..., 1:] * ij1[i])
            W[i], residue_cond[i] = _residue_solve(zeta, cj[i], Cz[i], Dz[i],
                                                   CQ)
            Q[i, 0] = Q[i, 0] + np.tensordot(W[i], Q[i, 1:], axes=1)
            pole_m12[i] = (np.sum(W[i, :p])
                           - W[i] @ Cz[i, np.arange(2 * p), row, 1])
    q = Q[:, 0]

    # E = -4i m12, m the z^{-1} moment: sum u_j plus (1/2 pi i) int
    # (e1 + P + q)(J-I) ds; sign fixed by the linearized (Born) limit
    # against the forward transform.  Folded, the integral over s < 0
    # is the conjugate of that over s > 0, and E = -(4/pi) Re sum_P w f.
    # One dot product per stamp: a batched product rounds differently.
    f = (1.0 + q[..., 0]) * J[:s, :, 0, 1] + q[..., 1] * (J[:s, :, 1, 1] - 1.0)
    w = contour.weights[n - m:]
    dot = np.array([w @ fi for fi in (f.real if folded else f)])
    E = ((-4.0 / np.pi * dot).astype(complex) if folded
         else -4j * (dot / (2j * np.pi) + pole_m12))
    diag.update(residual_rel=(res / bmax).reshape(s, k).max(axis=1),
                cond=cond.reshape(s, k).max(axis=1),
                iterations=its.reshape(s, k).sum(axis=1),
                posdef_min=posdef[:s], lu=lu)
    if residues is not None:
        diag.update(residue_cond=residue_cond, residues=W)
    if s < J.shape[0]:
        raise PosdefViolated(
            f"real-axis Hermitian-part minimum {posdef[s]:.3e}")
    return E, q, diag


def _cplus_rows(contour, g):
    """C+ of every row g[i] (m, 2) of g (r, m, 2), by one `cauchy_apply`."""
    r, m = g.shape[:2]
    return contour.cauchy_apply(g.transpose(1, 0, 2).reshape(m, 2 * r)
                                ).reshape(m, r, 2).transpose(1, 0, 2)


def _max_abs(v):
    """Largest modulus of the complex entries of v along its last axis, or
    of the complex numbers whose float view a real v is."""
    return np.max(np.abs(v.view(complex)), axis=-1)


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
    the matrix A of op: real on the float view of a folded stamp and
    complex otherwise.  Its columns op(e_k) fill one preallocated matrix
    from one unit vector, and A is dropped once inverted, so at most two
    matrices are held besides the two work copies `np.linalg.inv` makes
    in LAPACK.  Returns (V, residuals, cond): the solutions v by row, the
    max-norm residual of each, and the exact kappa_1 = ||A||_1 ||A^-1||_1,
    refused above COND_LIMIT, as is a singular A (`IllConditioned`)."""
    n = B[0].size
    A, e = np.empty((n, n), dtype=B[0].dtype), np.zeros(n, dtype=B[0].dtype)
    for k in range(n):          # row k of A^T is op(e_k)
        e[k] = 1.0
        A[k] = op(e)
        e[k] = 0.0
    norm = np.linalg.norm(A, np.inf)        # ||A||_1, A holding A^T
    try:
        Ainv = np.linalg.inv(A).T
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"dense operator singular ({exc})") from exc
    del A
    cond = float(norm * np.linalg.norm(Ainv, 1))
    if not cond <= COND_LIMIT:
        raise IllConditioned(f"dense operator condition {cond:.2e}")
    V = np.stack(B) @ Ainv.T
    return V, np.array([_max_abs(op(v) - b) for v, b in zip(V, B)]), cond


def _gmres(op, B, cond_max):
    """Unrestarted GMRES for op(x) = b from x = 0 (Saad & Schultz 1986),
    for every row b of B in lockstep.

    op(V, rows) applies to each row of V the operator of the row of B
    that `rows` names.  Each Arnoldi step applies the operators of all
    rows still stepping by one call of op, and runs classical
    Gram-Schmidt twice as batched products.  A row's earlier Givens
    rotations are one small matrix, applied to the new Hessenberg column
    by one product; the new rotation tracks the residual norm.  A row
    leaves as soon as its own stopping test passes.  It runs in the
    dtype of B, real or complex, and the arrays grow with the steps
    taken, from KRYLOV_START.  Returns (X, cond, its) by row of B: the
    solution x, cond = s_max/s_min of the row's (k+1) x k Hessenberg
    matrix and the row's Arnoldi steps.  A row whose budget runs out or
    whose cond is not at most cond_max has x = 0 and cond NaN, and its
    steps are still counted.  A vanishing right-hand side has the
    solution 0, after no step, with cond 1.
    """
    n = B.shape[1]
    beta = np.linalg.norm(B, axis=1)
    X, cond = np.zeros_like(B), np.where(beta > 0.0, np.nan, 1.0)
    its = np.zeros(B.shape[0], dtype=int)
    act = np.flatnonzero(beta)              # the rows still stepping
    beta, cap = beta[act], min(KRYLOV_START, KRYLOV_BUDGET)
    # per row: the Krylov basis V, the Arnoldi Hessenberg H, its rotated
    # triangle U, the product G of the rotations so far, and G beta e1
    V = np.empty((act.size, cap + 1, n), dtype=B.dtype)
    H = np.zeros((act.size, cap + 1, cap), dtype=B.dtype)
    U = np.zeros((act.size, cap, cap), dtype=B.dtype)
    G = np.zeros((act.size, cap + 1, cap + 1), dtype=B.dtype)
    g = np.zeros((act.size, cap + 1), dtype=B.dtype)
    V[:, 0] = B[act] / beta[:, None]
    G[:, 0, 0], g[:, 0] = 1.0, beta
    for k in range(KRYLOV_BUDGET):
        if act.size == 0:
            break
        if k == cap:
            cap = min(2 * cap, KRYLOV_BUDGET)
            V, H, U, G, g = [_grown(A, shape) for A, shape in (
                (V, (cap + 1, n)), (H, (cap + 1, cap)), (U, (cap, cap)),
                (G, (cap + 1, cap + 1)), (g, (cap + 1,)))]
        w = op(V[:, k], act)
        Vk = V[:, :k + 1]
        h = (Vk @ w.conj()[..., None])[..., 0].conj()
        w -= (h[:, None] @ Vk)[:, 0]
        h2 = (Vk @ w.conj()[..., None])[..., 0].conj()
        w -= (h2[:, None] @ Vk)[:, 0]
        h += h2
        wf = w.view(float)
        hn = np.sqrt((wf[:, None] @ wf[..., None])[:, 0, 0])
        H[:, :k + 1, k], H[:, k + 1, k] = h, hn

        col = (G[:, :k + 1, :k + 1] @ h[..., None])[..., 0]
        c, sn = _givens(col[:, k], hn)
        col[:, k] = c * col[:, k] + sn * hn
        U[:, :k + 1, k] = col
        G[:, k + 1, :k + 1] = -sn.conj()[:, None] * G[:, k, :k + 1]
        G[:, k, :k + 1] *= c[:, None]
        G[:, k, k + 1], G[:, k + 1, k + 1] = sn, c
        g[:, k + 1] = -sn.conj() * g[:, k]
        g[:, k] *= c

        stop = (np.abs(g[:, k + 1]) <= KRYLOV_RTOL * beta) | (hn == 0.0)
        if stop.any():
            d = np.flatnonzero(stop)
            its[act[d]] = k + 1
            with np.errstate(divide="ignore", invalid="ignore"):
                sv = np.linalg.svd(H[d, :k + 2, :k + 1], compute_uv=False)
                cd = sv[:, 0] / sv[:, -1]
            ok = cd <= cond_max
            e = d[ok]
            y = np.linalg.solve(U[e, :k + 1, :k + 1], g[e, :k + 1, None])
            X[act[e]] = (y.swapaxes(1, 2) @ V[e, :k + 1])[:, 0]
            cond[act[e]] = cd[ok]
            go = np.flatnonzero(~stop)
            act, beta, w, hn = act[go], beta[go], w[go], hn[go]
            # in place, no second basis; rows before d[0] keep their index
            for to, row in enumerate(go[d[0]:], d[0]):
                for A in (V, H, U, G, g):
                    A[to] = A[row]
            V, H, U, G, g = (A[:go.size] for A in (V, H, U, G, g))
        V[:, k + 1] = w / hn[:, None]
    its[act] = KRYLOV_BUDGET
    return X, cond, its


def _givens(a, hn):
    """Per row, the rotation (c, s) with c real that takes (a, hn) to
    (r a/|a|, 0), r = hypot(|a|, hn): c = |a|/r, s = (a/|a|) hn/r, and
    c = 0, s = 1 where a = 0."""
    absa = np.abs(a)
    zero = absa == 0.0
    absa[zero] = 1.0            # no 0/0 there: c and s are set below
    r = np.hypot(absa, hn)
    c, sn = absa / r, (a / absa) * hn / r
    c[zero], sn[zero] = 0.0, 1.0
    return c, sn


def _grown(A, shape):
    """A copied into zeros of the trailing shape, its first axis kept."""
    out = np.zeros(A.shape[:1] + shape, dtype=A.dtype)
    out[tuple(slice(0, size) for size in A.shape)] = A
    return out


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
