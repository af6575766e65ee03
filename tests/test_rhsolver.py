"""Contour operator, singular-integral solve, field and medium readout."""

import numpy as np
import pytest
from scipy.special import wofz

from mbrh import pipeline, rhsolver
from mbrh.broadening import (BroadeningProfile, eta_boundary, eta_eval,
                             mirror_unfold)
from mbrh.errors import (
    EmptyContour,
    IllConditioned,
    PosdefViolated,
    SingularResidueSystem,
)
from mbrh.pipeline import rh_field_grid, spectral_data
from mbrh.mat2 import det2, dagger, inv2
from mbrh.rhsolver import (
    contour_build,
    jump_window,
    posdef_check,
    residue_constants,
    sie_solve_block,
    soliton_closed_form,
)
from mbrh.spectral import ScenarioData, jost_phi
from references import (
    TooCloseToContour,
    WeightVanishes,
    cauchy_plus,
    evaluate_M,
    excited_scenario,
    identity_jump,
    jump_wholeline,
    mixed_jump,
    reconstruct_F_nodes,
    sie_solve_full,
    soliton_closed_form_real,
    soliton_evaluate_M,
    solve_stamp,
)

LOR = BroadeningProfile.lorentzian(1.0, sign=-1)
DELTA = BroadeningProfile.delta_approx(1e-3, sign=-1)


def reconstruct_F(evalM, profile, t, x, lam_targets, delta=0.05, hx=1e-3):
    """Medium state from the boundary jump of the x-logarithmic derivative.

    Off-axis route, independent of `reconstruct_F_nodes`: evalM(t, x, z)
    -> (Nz, 2, 2) evaluates the solved M off the contour.  Uses
    Phi_x Phi^{-1} = M_x M^{-1} + i eta(z) M sigma3 M^{-1} at lam +- i
    delta, Richardson-extrapolated from delta and delta/2, with M_x by
    central differences.  Returns (N, rho) arrays.
    """
    lam = np.atleast_1d(np.asarray(lam_targets, dtype=float))
    nv = profile.n(lam)
    if np.any(np.abs(nv) < 1e-6):
        raise WeightVanishes("n(lambda) too small for the jump formula")

    def logderiv(zs):
        M0 = evalM(t, x, zs)
        Mp = evalM(t, x + hx, zs)
        Mm = evalM(t, x - hx, zs)
        Mx = (Mp - Mm) / (2 * hx)
        Minv = inv2(M0)
        sig = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        eta_z = eta_eval(profile, zs)
        return Mx @ Minv + 1j * eta_z[:, None, None] * (M0 @ sig @ Minv)

    def jump_at(d):
        up = logderiv(lam + 1j * d)
        dn = logderiv(lam - 1j * d)
        return up - dn

    j1 = jump_at(delta)
    j2 = jump_at(delta / 2)
    jmp = 2.0 * j2 - j1                       # linear Richardson in delta
    F = jmp * (2.0 / (np.pi * nv))[:, None, None]
    N = F[:, 0, 0].real
    rho = 0.5 * (F[:, 0, 1] + np.conj(F[:, 1, 0]))
    return N, rho


class TestContour:
    def test_weights_reproduce_integrals(self):
        c = contour_build(window=(-3.0, 5.0), n_panels=8, nodes_per_panel=12)
        z, w = c.nodes, c.weights
        # polynomial moments over [-3, 5]
        for k in range(5):
            want = (5.0 ** (k + 1) - (-3.0) ** (k + 1)) / (k + 1)
            assert abs(np.sum(w * z ** k) - want) < 1e-12
        # oscillatory integrand
        want = np.exp(5j) / 1j - np.exp(-3j) / 1j
        assert abs(np.sum(w * np.exp(1j * z)) - want) < 1e-12

    def test_empty_contour(self):
        with pytest.raises(EmptyContour):
            contour_build(n_panels=0)

    def test_segment_diff_matrix(self):
        c = contour_build(window=(-1.0, 2.0), n_panels=1, nodes_per_panel=14)
        f = np.exp(0.7 * c.nodes)
        df = rhsolver._barycentric_diff(c.nodes) @ f
        assert np.max(np.abs(df - 0.7 * f)) < 1e-9


class TestJumpWindow:
    """`jump_window`: the outer panels on which J = I to TAIL_TOL of the
    peak of |J - I| are dropped, and the rest is a contour of its own."""

    @staticmethod
    def jumps(contour, bump):
        """Two x columns of jumps I + bump(lam) [[0, 1], [-1, 0]] / k,
        column k = 1, 2."""
        J = np.broadcast_to(np.eye(2, dtype=complex),
                            (2, contour.n_nodes, 2, 2)).copy()
        for k in (1, 2):
            J[k - 1, :, 0, 1] += bump(contour.nodes) / k
            J[k - 1, :, 1, 0] -= bump(contour.nodes) / k
        return J

    def test_drops_the_outer_panels_only(self):
        c = contour_build(window=(-20.0, 20.0), n_panels=20, nodes_per_panel=8)
        # peak 1 at lam = 0, below 1e-8 beyond |lam| ~ 4.3; the dip at
        # lam = 1 is kept, as it lies inside the run
        bump = lambda lam: np.exp(-lam ** 2) * (lam - 1.0) ** 2
        sub, keep, report = jump_window(c, self.jumps(c, bump))
        assert report["configured"] == [-20.0, 20.0]
        assert report["kept"] == [-6.0, 6.0]
        assert sub.n_nodes == 6 * 8 and keep == slice(7 * 8, 13 * 8)
        assert np.array_equal(sub.nodes, c.nodes[keep])
        assert np.array_equal(sub.weights, c.weights[keep])
        assert np.array_equal(sub.edges, c.edges[7:14])
        # the sub-contour is the contour built on its own window
        own = contour_build(window=(-6.0, 6.0), n_panels=6, nodes_per_panel=8)
        assert np.max(np.abs(sub.nodes - own.nodes)) < 1e-14
        assert np.max(np.abs(sub.kernel() - own.kernel())) < 1e-12
        peak = np.max(np.abs(bump(c.nodes)))
        rel = np.abs(bump(c.nodes)).reshape(20, 8).max(axis=1) / peak
        assert report["dropped_max"] == pytest.approx(
            max(rel[6], rel[13]), rel=1e-12)
        assert 0.0 < report["dropped_max"] <= rhsolver.TAIL_TOL
        assert report["edge_max"] == pytest.approx(max(rel[0], rel[-1]),
                                                   rel=1e-12)

    def test_keeps_every_panel_of_a_trivial_jump(self):
        c = contour_build(window=(-20.0, 20.0), n_panels=6, nodes_per_panel=4)
        sub, keep, report = jump_window(c, self.jumps(c, np.zeros_like))
        assert sub is c and keep == slice(0, 24)
        assert report == {"configured": [-20.0, 20.0], "kept": [-20.0, 20.0],
                          "dropped_max": 0.0, "edge_max": 0.0,
                          "tail": {"p50": 0.0, "max": 0.0}}

    def test_whole_window_is_the_contour_itself(self):
        # nothing to drop: the stamps share the configured contour and its H
        c = contour_build(window=(-3.0, 3.0), n_panels=3, nodes_per_panel=6)
        sub, keep, report = jump_window(c, self.jumps(c, lambda l: 1 + 0 * l))
        assert sub is c and keep == slice(0, 18)
        assert report["dropped_max"] == 0.0 and report["edge_max"] == 1.0

    def test_tail_reads_the_last_legendre_coefficients(self):
        # bump = P_5 on each panel's reference interval: of degree 5, it
        # has no tail on 8 nodes, and on 6 its tail is c_5 = 1 relative
        # to the peak of |P_5| on the nodes
        for m, tail in ((8, 0.0), (6, 1.0)):
            c = contour_build(window=(-1.0, 3.0), n_panels=2,
                              nodes_per_panel=m)
            s = c.nodes - np.where(c.nodes < 1.0, 0.0, 2.0)
            P5 = np.polynomial.legendre.Legendre.basis(5)(s)
            _, _, report = jump_window(c, self.jumps(c, lambda lam: P5))
            want = tail / np.max(np.abs(P5))
            assert report["tail"]["max"] == pytest.approx(want, abs=1e-13)
            assert report["tail"]["p50"] == pytest.approx(want, abs=1e-13)


class TestCauchyPlus:
    def test_real_axis_half_plane_projections(self):
        # C+ reproduces boundary values analytic above, kills those below
        c = contour_build(window=(-30.0, 30.0), n_panels=60,
                          nodes_per_panel=16)
        CP = cauchy_plus(c)
        z = c.nodes
        f_up = 1.0 / (z - (-0.4 - 1.5j)) ** 4      # analytic in upper half
        f_dn = 1.0 / (z - (0.9 + 1.2j)) ** 4       # analytic in lower half
        # away from the window edges (the tail truncation dominates there)
        m = np.abs(z.real) < 20
        assert np.max(np.abs((CP @ f_up - f_up)[m])) < 1e-6
        assert np.max(np.abs((CP @ f_dn)[m])) < 1e-6


class TestRealKernel:
    def test_real_contour_keeps_real_hilbert_matrix(self):
        c = contour_build(window=(-16.0, 16.0), n_panels=16, nodes_per_panel=12)
        H = c.kernel()
        assert H.dtype == np.float64 and H.shape == (c.n_nodes, c.n_nodes)
        # on the real axis C+ is exactly I/2 + iH with H real
        CP = cauchy_plus(c)
        assert np.array_equal(CP.real, 0.5 * np.eye(c.n_nodes))
        rng = np.random.default_rng(3)
        X = rng.standard_normal((c.n_nodes, 2)) + 1j * rng.standard_normal((c.n_nodes, 2))
        want = CP @ X
        for Y in (X, np.asfortranarray(X)):
            assert np.max(np.abs(c.cauchy_apply(Y) - want)) <= 1e-14 * np.max(np.abs(want))


class TestSieSolve:
    def test_trivial_jump(self):
        c = contour_build(n_panels=12, nodes_per_panel=8)
        res = solve_stamp(c, identity_jump(c))
        Q, m = sie_solve_full(c, identity_jump(c))
        assert np.max(np.abs(Q)) < 1e-13
        assert abs(res.E) < 1e-13
        assert np.max(np.abs(m)) < 1e-13
        assert res.diagnostics["residual_rel"] < 1e-13

    def test_zero_right_hand_sides_solve_without_lu(self):
        # I - J = 0 makes every right-hand side vanish: GMRES returns the
        # zero solution after no step, and no stamp falls back to LU
        c = contour_build(n_panels=12, nodes_per_panel=8)
        [(x, cond, its)] = rhsolver._gmres(lambda V, rows: V,
                                           np.zeros((1, 8), complex), 1.0)
        assert not np.any(x) and x.shape == (8,) and (cond, its) == (1.0, 0)
        zj, cj = residue_constants([(0.5j, 1.0 + 0.0j)], DELTA, 0.4, 0.2)
        for residues in (None, (zj, cj)):
            d = solve_stamp(c, identity_jump(c), residues).diagnostics
            assert (d["lu"], d["iterations"], d["cond"]) == (False, 0, 1.0)
            assert d["residual_rel"] == 0.0

    def test_born_regime_operator(self):
        c = contour_build(window=(-12, 12), n_panels=24, nodes_per_panel=12)
        lam = c.nodes
        r = 0.01 * np.exp(-lam ** 2)
        J = jump_wholeline(1.0, 0.5, lam, r, LOR)
        Q, _ = sie_solve_full(c, J)
        CP = cauchy_plus(c)
        R = np.einsum("ij,jab->iab", CP, np.eye(2) - J)
        # first Born correction is quadratic in r
        assert np.max(np.abs(Q - R)) < 0.05 * np.max(np.abs(R))

    def test_linear_limit_reconstructs_gaussian_field(self):
        # r(lam) = 0.5 * Fourier transform of E at this order, so the
        # moment formula must return E(t) = (2 eps/sqrt(pi)) e^{-t^2}
        # for r = eps e^{-lam^2} at x = 0
        eps = 0.01
        c = contour_build(window=(-12, 12), n_panels=24, nodes_per_panel=16)
        lam = c.nodes
        ts = (0.0, 0.4, -0.8)
        J = np.stack([jump_wholeline(t, 0.0, lam, eps * np.exp(-lam ** 2), LOR)
                      for t in ts])
        for t, res in zip(ts, sie_solve_block(c, J)):
            want = (2 * eps / np.sqrt(np.pi)) * np.exp(-t ** 2)
            assert abs(res.E - want) < 5e-5

    def test_roundtrip_forward_inverse(self):
        # forward scattering of a soliton-free pulse, then the inverse
        # transform at x=0 must reproduce the boundary field
        sc = ScenarioData(T=10.0, L=5.0,
                          E_in=lambda t: 0.4 * np.exp(-((t - 4.0) / 0.8) ** 2),
                          E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                          rho0=None)
        c = contour_build(window=(-20, 20), n_panels=24, nodes_per_panel=16)
        lam = c.nodes
        Phi0 = jost_phi(sc, lam)
        r = Phi0[:, 0, 1] / Phi0[:, 1, 1]
        ts = (3.2, 4.0, 5.0)
        J = np.stack([jump_wholeline(t, 0.0, lam, r, LOR) for t in ts])
        for t, res in zip(ts, sie_solve_block(c, J)):
            want = sc.E_in(t)
            assert abs(res.E - want) < 1e-3 * abs(want)

    def test_self_convergence_under_refinement(self):
        vals = []
        for (np_, nn) in ((16, 12), (32, 24)):
            c = contour_build(window=(-16, 16), n_panels=np_,
                              nodes_per_panel=nn)
            lam = c.nodes
            J = jump_wholeline(0.7, 0.5, lam, 0.3 * np.exp(-lam ** 2), LOR)
            vals.append(solve_stamp(c, J).E)
        assert abs(vals[0] - vals[1]) < 1e-6

    def test_posdef_guard(self):
        c = contour_build(n_panels=6, nodes_per_panel=6)
        J = np.broadcast_to(np.diag([-2.0 + 0j, 1.0]),
                            (c.n_nodes, 2, 2)).copy()
        with pytest.raises(PosdefViolated):
            solve_stamp(c, J)


def desk_stamps(ts=(2.0, 3.5, 6.0), xs=(0.0, 2.5), chirp=0.0):
    """Mixed-problem jumps of the desk pulse, or of the pulse chirped by
    e^{i chirp (t - 3)^2}, on a 192-node real axis."""
    sc = ScenarioData(T=10.0, L=5.0,
                      E_in=lambda t: 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2)
                      * np.exp(1j * chirp * (t - 3.0) ** 2),
                      E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                      rho0=None)
    c = contour_build(window=(-16.0, 16.0), n_panels=16, nodes_per_panel=12)
    lam = c.nodes
    ev = eta_boundary(LOR, lam)
    _, Kp, Km = spectral_data(sc, LOR, ev, x_out=xs)
    return c, [mixed_jump(t, x, ev, Kp[i], Km[i])
               for t in ts for i, x in enumerate(xs)]


def dense_operator(contour, J):
    """I - T of the row-decoupled 2N x 2N system, and the right-hand side."""
    n = contour.n_nodes
    CP = cauchy_plus(contour)
    IJ = np.eye(2) - J
    T = np.einsum("ij,jab->ibja", CP, IJ).reshape(2 * n, 2 * n)
    R = np.einsum("ij,jab->iab", CP, IJ)
    return np.eye(2 * n) - T, R


class TestKrylovPath:
    def test_matches_dense_solve_and_svd_condition(self):
        c, Js = desk_stamps()
        for J, res in zip(Js, sie_solve_block(c, np.stack(Js))):
            A, R = dense_operator(c, J)
            q = np.linalg.solve(A, R[:, 0, :].ravel()).reshape(-1, 2)
            assert np.max(np.abs(res.Q - q)) < 1e-13
            d = res.diagnostics
            assert 0 < d["iterations"] <= rhsolver.KRYLOV_BUDGET
            sv = np.linalg.svd(A, compute_uv=False)
            kappa2 = sv[0] / sv[-1]
            # the Hessenberg estimate is a lower bound, and a tight one here
            assert 0.9 * kappa2 <= d["cond"] <= kappa2 * (1 + 1e-12)
            assert d["residual_rel"] < 1e-14
            assert d["posdef_min"] == posdef_check(J)

    def test_full_reference_matches_dense_two_row_solve(self):
        # row 2 through the sigma1-swapped jump, on the Krylov path
        c, Js = desk_stamps()
        for J, res in zip(Js, sie_solve_block(c, np.stack(Js))):
            Q, m = sie_solve_full(c, J)
            A, R = dense_operator(c, J)
            want = np.stack([np.linalg.solve(A, R[:, r, :].ravel()).reshape(-1, 2)
                             for r in range(2)], axis=1)
            assert np.max(np.abs(Q - want)) < 1e-13
            assert abs(-4j * m[0, 1] - res.E) < 1e-14
            # both rows solve the two-row system
            CP = cauchy_plus(c)
            resid = Q - np.einsum("ij,jab->iab", CP, Q @ (np.eye(2) - J)) - R
            assert np.max(np.abs(resid)) < 1e-14 * np.max(np.abs(R))

    def test_budget_exhausted_falls_back_to_lu(self, monkeypatch):
        c, Js = desk_stamps(ts=(3.0,), xs=(1.0,))
        krylov = solve_stamp(c, Js[0])
        Q_krylov, _ = sie_solve_full(c, Js[0])
        monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", 2)
        lu = solve_stamp(c, Js[0])
        Q_lu, _ = sie_solve_full(c, Js[0])
        assert krylov.diagnostics["iterations"] > 2
        assert lu.diagnostics["iterations"] == 0
        assert abs(lu.E - krylov.E) < 1e-14
        assert np.max(np.abs(Q_lu - Q_krylov)) < 1e-13
        assert lu.diagnostics["residual_rel"] < 1e-14

    def test_fallback_counted_in_field_grid(self, monkeypatch):
        from mbrh.pipeline import rh_field_grid
        sc = ScenarioData(T=10.0, L=5.0,
                          E_in=lambda t: 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2)
                          + 0j * t,
                          E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                          rho0=None)
        kw = dict(window=(-16.0, 16.0), n_panels=16, nodes_per_panel=12,
                  find_poles=False)
        E, diag = rh_field_grid(sc, LOR, [2.5, 3.5], [0.0], **kw)
        assert diag["lu_stamps"] == 0 and diag["krylov_iters"]["p50"] > 2
        monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", 2)
        E_lu, diag_lu = rh_field_grid(sc, LOR, [2.5, 3.5], [0.0], **kw)
        assert diag_lu["lu_stamps"] == 2 and diag_lu["residue_cond"] is None
        assert diag_lu["krylov_iters"] == {"p50": 0.0, "max": 0.0}
        assert np.max(np.abs(E_lu - E)) < 1e-14
        assert 0 < diag_lu["posdef_min"]["min"] <= diag_lu["posdef_min"]["p50"]

    def test_triangle_solve_matches_lapack_trsv(self):
        # _gmres solves its rotated triangle with np.linalg.solve, which
        # keeps scipy.linalg off the Krylov path; on an upper triangle
        # its LU does no row exchange and reduces to back substitution
        from scipy.linalg import solve_triangular
        rng = np.random.default_rng(11)
        for n in range(1, 101):
            U = np.triu(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
            # row diagonal dominance keeps the system well conditioned
            phase = np.exp(2j * np.pi * rng.random(n))
            U[np.diag_indices(n)] = phase * (1.0 + np.sum(np.abs(U), axis=1))
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = solve_triangular(U, g)
            y = np.linalg.solve(U, g)
            assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_pole_stamps_solve_without_lu(self):
        # 1 + 2p right-hand sides on the Krylov path: `iterations` sums
        # their Arnoldi steps, `cond` is the largest Hessenberg estimate
        c, Js = desk_stamps(ts=(3.0,), xs=(1.0,))
        plain = solve_stamp(c, Js[0]).diagnostics
        poles = [(0.5j, 1.0 + 0.0j), (-0.4 + 0.8j, 0.3 - 2.0j)]
        d = solve_stamp(c, Js[0], residue_constants(poles, LOR, 3.0, 1.0)).diagnostics
        assert not d["lu"] and d["iterations"] > 2 * plain["iterations"]
        assert d["cond"] >= plain["cond"] and d["residual_rel"] < 1e-14
        assert 1.0 <= d["residue_cond"] < 1e2 and plain["residue_cond"] is None

    def test_residue_condition_refused(self, monkeypatch):
        # the SVD condition of the scaled residue system is a certificate:
        # on a trivial axis jump no other certificate can refuse
        c = contour_build(window=(-16.0, 16.0), n_panels=16, nodes_per_panel=12)
        residues = residue_constants([(0.5j, 1.0 + 0.0j)], LOR, 16.0, 0.0)
        ok = solve_stamp(c, identity_jump(c), residues)
        assert abs(ok.diagnostics["residue_cond"] - 1.0) < 1e-12
        monkeypatch.setattr(rhsolver, "COND_LIMIT", 0.5)
        with pytest.raises(IllConditioned, match="residue system condition"):
            solve_stamp(c, identity_jump(c), residues)


class TestDenseFallback:
    """A stamp GMRES cannot certify is solved by the inverse of the
    matrix of the same operator, with its exact 1-norm condition."""

    @pytest.mark.parametrize("kind", ["folded", "whole", "poles"])
    def test_matches_krylov_with_the_exact_condition(self, kind, monkeypatch):
        c, Js = desk_stamps(ts=(3.0,), xs=(1.0,),
                            chirp=0.5 if kind == "whole" else 0.0)
        A, _ = dense_operator(c, Js[0])
        J, residues, n, h = Js[0], None, c.n_nodes, c.n_nodes // 2
        if kind == "folded":
            # the real matrix of the operator on (Re q, Im q) at s > 0,
            # applied through the unfolded row q(-s) = conj q(s)
            J = J[h:]
            cols = [(A @ mirror_unfold(e.view(complex).reshape(h, 2), n)
                     .ravel()).reshape(n, 2)[h:].ravel().view(float)
                    for e in np.eye(2 * n)]
            A = np.array(cols).T
        if kind == "poles":
            residues = residue_constants([(0.5j, 1.0 + 0.0j)], LOR, 3.0, 1.0)
        krylov = solve_stamp(c, J, residues)
        monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", 2)
        dense = solve_stamp(c, J, residues)
        d = dense.diagnostics
        assert d["lu"] and d["iterations"] == 0 and d["residual_rel"] < 1e-14
        assert abs(d["cond"] - np.linalg.cond(A, 1)) <= 1e-12 * d["cond"]
        assert abs(dense.E - krylov.E) < 1e-14
        assert np.max(np.abs(dense.Q - krylov.Q)) < 1e-13
        assert (dense.E.imag == 0.0) == (kind == "folded")

    def test_singular_operator_refused(self):
        # [[1, 2], [2, 4]] has an exactly zero pivot: numpy's LinAlgError
        # becomes the typed refusal
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(IllConditioned, match="singular"):
            rhsolver._dense_solve(lambda v: A @ v, [np.ones(2)])

    def test_condition_above_the_limit_refused(self, monkeypatch):
        A = np.array([[1.0, 0.0], [0.0, 1e-3]])
        [(res, v, cond, its)] = rhsolver._dense_solve(lambda v: A @ v,
                                                      [np.ones(2)])
        assert (res, cond, its) == (0.0, 1e3, 0)
        assert np.array_equal(v, [1.0, 1e3])
        monkeypatch.setattr(rhsolver, "COND_LIMIT", 999.0)
        with pytest.raises(IllConditioned, match="condition 1.00e\\+03"):
            rhsolver._dense_solve(lambda v: A @ v, [np.ones(2)])

    def test_memory_holds_two_matrices(self):
        # the columns fill one preallocated matrix, dropped once inverted:
        # at N = 256 the traced peak holds two complex 2N x 2N matrices
        # (64 N^2 B each), where the list of columns and its array held
        # 2.5 (LAPACK's own copies inside np.linalg.inv are not traced)
        import tracemalloc
        n = 256
        b = np.ones(2 * n, complex)
        tracemalloc.start()
        try:
            [(res, v, cond, its)] = rhsolver._dense_solve(lambda u: 2 * u, [b])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res, cond, its) == (0.0, 1.0, 0) and np.all(v == 0.5)
        assert peak <= 2.25 * 64 * n ** 2


def desk_lattice():
    """The acceptance desk scenario and its 21 x 6 lattice."""
    sc = ScenarioData(T=10.0, L=5.0,
                      E_in=lambda t: 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2)
                      + 0j * t,
                      E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                      rho0=None)
    return sc, np.linspace(0.0, 10.0, 21), np.linspace(0.0, 5.0, 6)


def solved_stamps(monkeypatch, block, *args, **kwargs):
    """rh_field_grid(*args, **kwargs) in blocks of `block` stamps, or of
    the pipeline's own size when block is None: its diagnostics and each
    stamp's RHResult, in lattice order."""
    seen, solve = [], pipeline.sie_solve_block

    def recording(*a):
        out = solve(*a)
        seen.extend(out)
        return out

    if block is not None:
        monkeypatch.setattr(pipeline, "STAMP_BLOCK", block)
        monkeypatch.setattr(pipeline, "BLOCK_FLOATS", 0)
    monkeypatch.setattr(pipeline, "sie_solve_block", recording)
    _, diag = rh_field_grid(*args, **kwargs)
    monkeypatch.setattr(pipeline, "sie_solve_block", solve)
    return diag, seen


def assert_same_stamps(block, alone):
    """Each stamp of a block solves as it does alone: the same E to 1e-14
    of sup |E|, iterations, fallback and posdef minimum, and cond and the
    residue condition to rounding.  residual_rel reads rounding of the
    batched kernel products, so it is held below 1e-14 on both."""
    E = np.array([res.E for res in alone])
    assert len(block) == len(alone)
    assert np.max(np.abs(np.array([res.E for res in block]) - E)) \
        <= 1e-14 * np.max(np.abs(E))
    for a, b in zip(alone, block):
        da, db = a.diagnostics, b.diagnostics
        for key in ("iterations", "lu", "posdef_min"):
            assert da[key] == db[key]
        for key in ("cond", "residue_cond"):
            if da[key] is not None:
                assert abs(db[key] - da[key]) <= 1e-10 * da[key]
        assert max(da["residual_rel"], db["residual_rel"]) < 1e-14


class TestBlockSolve:
    """`sie_solve_block`: the stamps of a block solve together by one
    lockstep GMRES, and each keeps its own certificates."""

    def test_desk_lattice_stamps_solve_as_alone(self, monkeypatch):
        # folded stamps of the 21 x 6 desk lattice on 80 nodes: rows of
        # 320 floats, so 6144 // 320 = 19 stamps a block, 7 blocks
        sc, t, x = desk_lattice()
        diag, block = solved_stamps(monkeypatch, None, sc, LOR, t, x)
        diag1, alone = solved_stamps(monkeypatch, 1, sc, LOR, t, x)
        assert diag["full_axis"] is None and len(alone) == 126
        assert diag["n_nodes"] == 160
        blocks, blocks1 = diag["stamp_blocks"], diag1["stamp_blocks"]
        assert (blocks["count"], blocks["largest"]) == (7, 19)
        assert (blocks1["count"], blocks1["largest"]) == (126, 1)
        # the same rows step, fewer products step them
        assert blocks["row_steps"] == blocks1["row_steps"] == sum(
            res.diagnostics["iterations"] for res in alone)
        assert blocks1["steps"] == blocks1["row_steps"]
        assert blocks["steps"] < blocks1["steps"] / 10
        assert_same_stamps(block, alone)

    def test_pole_stamps_solve_as_alone(self, monkeypatch):
        # the 2 sech pulse (one zero of a at i/2): 1 + 2p = 3 rows per
        # stamp on the whole axis, of 4 x 256 floats: blocks of 8 remain
        sc = ScenarioData(T=32.0, L=1.0,
                          E_in=lambda t: 2.0 / np.cosh(t - 16.0) + 0j * t,
                          E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                          rho0=None)
        args = (sc, LOR, np.linspace(14.0, 18.0, 5), np.linspace(0.0, 1.0, 2))
        kw = dict(n_panels=16, nodes_per_panel=16)
        diag, block = solved_stamps(monkeypatch, None, *args, **kw)
        _, alone = solved_stamps(monkeypatch, 1, *args, **kw)
        assert diag["n_poles"] == 1
        assert (diag["stamp_blocks"]["count"],
                diag["stamp_blocks"]["largest"]) == (2, 8)
        assert all(res.residues.shape == (2,) for res in block)
        assert_same_stamps(block, alone)

    def test_excited_stamps_keep_blocks_of_8(self, monkeypatch):
        # the excited medium keeps 192 folded nodes: rows of 768 floats,
        # whose 8 to a block fill BLOCK_FLOATS
        args = (excited_scenario(), LOR, np.linspace(0.0, 10.0, 5),
                np.linspace(0.0, 2.0, 3))
        diag, block = solved_stamps(monkeypatch, None, *args)
        _, alone = solved_stamps(monkeypatch, 1, *args)
        assert diag["full_axis"] is None and diag["n_nodes"] == 384
        assert (diag["stamp_blocks"]["count"],
                diag["stamp_blocks"]["largest"]) == (2, 8)
        assert_same_stamps(block, alone)

    def test_stamp_loop_keeps_no_density(self, monkeypatch):
        # the loop keeps E and the reported diagnostics of each stamp, not
        # its RHResult with the unfolded density Q (about 6 KB a stamp on
        # desk): the traced peak from the first block on grows by less
        # than 1 KB a stamp.  Every stamp is the same, so that each block
        # holds the same Krylov arrays
        import tracemalloc
        sc, _, _ = desk_lattice()
        solve, seen = pipeline.sie_solve_block, []

        def reset_first(*a):
            if not seen:
                tracemalloc.reset_peak()
            seen.append(1)
            return solve(*a)

        monkeypatch.setattr(pipeline, "sie_solve_block", reset_first)

        def peak(n):
            seen.clear()
            tracemalloc.start()
            try:
                rh_field_grid(sc, LOR, np.full(n, 10.0), [0.0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 38, 228
        assert (peak(large) - peak(small)) / (large - small) < 1024

    def test_identity_stamp_takes_no_step(self):
        c, Js = desk_stamps()
        eye = np.broadcast_to(np.eye(2, dtype=complex), Js[0].shape)
        out = sie_solve_block(c, np.stack([Js[0], eye, Js[1]]))
        d = out[1].diagnostics
        assert out[1].E == 0.0 and not np.any(out[1].Q)
        assert (d["iterations"], d["cond"], d["lu"]) == (0, 1.0, False)
        assert_same_stamps([out[0], out[2]],
                           [solve_stamp(c, Js[0]), solve_stamp(c, Js[1])])

    def test_only_the_slowest_stamp_falls_back(self, monkeypatch):
        # a budget one step short of the slowest stamp's steps: that stamp
        # alone takes the dense path, on the same field
        sc, t, x = desk_lattice()
        diag, block = solved_stamps(monkeypatch, 8, sc, LOR, t[:1], x)
        its = [res.diagnostics["iterations"] for res in block]
        slow = int(np.argmax(its))
        assert its.count(its[slow]) == 1 and diag["lu_stamps"] == 0
        monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", its[slow] - 1)
        diag_lu, block_lu = solved_stamps(monkeypatch, 8, sc, LOR, t[:1], x)
        assert diag_lu["lu_stamps"] == 1
        assert [res.diagnostics["lu"] for res in block_lu] == \
            [i == slow for i in range(len(its))]
        assert block_lu[slow].diagnostics["iterations"] == 0
        assert abs(block_lu[slow].E - block[slow].E) < 1e-14
        assert_same_stamps(block_lu[:slow] + block_lu[slow + 1:],
                           block[:slow] + block[slow + 1:])

    def test_earliest_refusing_stamp_refuses(self, monkeypatch):
        # stamp 2 violates posdef, which is checked first; stamp 1 refuses
        # later, in its dense solve, but is the earlier in the block
        c, Js = desk_stamps()
        bad = np.broadcast_to(np.diag([-2.0 + 0j, 1.0]), Js[0].shape)
        eye = np.broadcast_to(np.eye(2, dtype=complex), Js[0].shape)
        J = np.stack([eye, Js[0], bad])
        with pytest.raises(PosdefViolated, match="minimum -2.000e\\+00"):
            sie_solve_block(c, J)
        monkeypatch.setattr(rhsolver, "COND_LIMIT", 0.5)
        with pytest.raises(IllConditioned, match="dense operator condition"):
            sie_solve_block(c, J)


class TestEvaluateM:
    def setup_method(self):
        self.c = contour_build(window=(-16, 16), n_panels=24,
                               nodes_per_panel=16)
        lam = self.c.nodes
        self.J = jump_wholeline(0.5, 0.3, lam, 0.3 * np.exp(-lam ** 2), LOR)
        self.Q, self.m = sie_solve_full(self.c, self.J)

    def test_unimodular_off_contour(self):
        zs = np.array([2j, -3j, 1.5 + 2.5j, -4 - 1j])
        M = evaluate_M(self.Q, self.c, self.J, zs)
        assert np.max(np.abs(det2(M) - 1.0)) < 1e-6

    def test_moment_asymptotics(self):
        # M(z) - I - m/z = O(1/z^2)
        for R in (30.0, 60.0):
            z = np.array([R * np.exp(1j * np.pi / 3)])
            M = evaluate_M(self.Q, self.c, self.J, z)
            err = np.max(np.abs(M[0] - np.eye(2) - self.m / z[0]))
            assert err < 10.0 / R ** 2

    def test_too_close_guard(self):
        z0 = self.c.nodes[10] + 1e-8j
        with pytest.raises(TooCloseToContour):
            evaluate_M(self.Q, self.c, self.J, np.array([z0]))


class TestSolitonClosedForm:
    def setup_method(self):
        self.prof = BroadeningProfile.delta_approx(1e-3, sign=-1)
        self.poles = [(0.5j, 1.0 + 0.0j)]

    def one_pole_oracle(self, t, x):
        z1, m1 = self.poles[0]
        eta1 = eta_eval(self.prof, np.array([z1]))[0]
        cc = m1 * np.exp(-2j * (z1 * t - x * eta1))
        a1 = cc / (1.0 + abs(cc) ** 2)
        return -4j * a1

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for t, x in rng.uniform(-3, 3, size=(8, 2)):
            E, _ = soliton_closed_form(self.poles, self.prof, t, x)
            assert abs(E - self.one_pole_oracle(t, x)) < 1e-12

    def test_peak_amplitude_and_profile(self):
        # |E| = 4 nu sech(2 nu t - 2 kappa x - d0), kappa = nu + 1/(4 nu)
        nu, kappa = 0.5, 0.5 + 0.5
        x = 0.7
        ts = np.linspace(-5, 8, 400)
        amp = np.abs(soliton_closed_form(self.poles, self.prof, ts, x)[0])
        assert abs(np.max(amp) - 4 * nu) < 1e-3
        d0 = 2 * kappa * x - 2 * nu * ts[np.argmax(amp)]
        want = 4 * nu / np.cosh(2 * nu * ts - 2 * kappa * x - d0)
        assert np.max(np.abs(amp - want)) < 2e-2

    def test_unit_determinant_and_symmetry(self):
        z = np.array([0.3 + 1.1j, -2.0 + 0.2j, 1.7 - 0.8j, 0.05 + 0j])
        M = soliton_evaluate_M(self.poles, self.prof, 0.4, -0.3, z)
        assert np.max(np.abs(det2(M) - 1.0)) < 1e-12

    def test_medium_state_on_axis(self):
        lam = np.linspace(-4, 4, 41)
        M = soliton_evaluate_M(self.poles, self.prof, 1.0, 0.5,
                               lam.astype(complex))
        sig = np.diag([1.0, -1.0]).astype(complex)
        F = M @ sig @ dagger(M)
        assert np.max(np.abs(F - dagger(F))) < 1e-12
        N = F[:, 0, 0].real
        rho = F[:, 0, 1]
        assert np.max(np.abs(N ** 2 + np.abs(rho) ** 2 - 1.0)) < 1e-10

    def test_lower_half_pole_rejected(self):
        with pytest.raises(SingularResidueSystem):
            soliton_closed_form([(-0.5j, 1.0)], self.prof, 0.0, 0.0)

    def test_two_pole_reduces_to_sum_when_far(self):
        # far-separated poles: field is close to the sum of single solitons
        poles = [(0.5j, 1e-6 + 0j), (0.4 + 0.6j, 1e6 + 0j)]
        E2, _ = soliton_closed_form(poles, self.prof, 0.0, 0.0)
        Ea, _ = soliton_closed_form(poles[:1], self.prof, 0.0, 0.0)
        Eb, _ = soliton_closed_form(poles[1:], self.prof, 0.0, 0.0)
        assert abs(E2 - (Ea + Eb)) < 1e-4


def random_poles(seed):
    """1 to 4 poles with Im z in [0.2, 1.5] and complex norming constants."""
    rng = np.random.default_rng(seed)
    p = 1 + seed % 4
    z = rng.uniform(-1.0, 1.0, p) + 1j * rng.uniform(0.2, 1.5, p)
    m = rng.normal(size=p) + 1j * rng.normal(size=p)
    return list(zip(z, m))


@pytest.mark.parametrize("profile, seed, tol", [(DELTA, None, 1e-14)] + [
    (prof, seed, 1e-11) for prof in (LOR, DELTA) for seed in range(8)],
    ids=["one-pole"] + [f"{name}-{seed}" for name in ("lorentzian", "delta")
                        for seed in range(8)])
def test_complex_system_matches_real_form(profile, seed, tol):
    # the 2p x 2p complex system on a whole lattice against the real
    # 4p-dimensional map solved stamp by stamp
    poles = [(0.5j, 1.0 + 0.0j)] if seed is None else random_poles(seed)
    t = np.linspace(-2.0, 2.0, 9)[:, None]
    x = np.linspace(0.0, 1.5, 4)[None, :]
    E, a = soliton_closed_form(poles, profile, t, x)
    assert E.shape == (9, 4) and a.shape == (9, 4, len(poles), 2)
    stamps = [[soliton_closed_form_real(poles, profile, tv, xv)
               for xv in x[0]] for tv in t[:, 0]]
    E_ref = np.array([[E_s for E_s, _ in row] for row in stamps])
    a_ref = np.array([[a_s for _, a_s in row] for row in stamps])
    assert np.max(np.abs(E - E_ref)) <= tol * np.max(np.abs(E_ref))
    assert np.max(np.abs(a - a_ref)) <= tol * np.max(np.abs(a_ref))

    # one lattice call is the stamp-by-stamp calls
    each = np.array([[soliton_closed_form(poles, profile, tv, xv)[0]
                      for xv in x[0]] for tv in t[:, 0]])
    assert np.max(np.abs(E - each)) <= 1e-15 * np.max(np.abs(each))

    # residue conditions a_j - c_j sum_k b_k / (z_j - conj z_k) = c_j e1,
    # b_k = (conj a_k2, -conj a_k1), relative to max |c_j| per stamp
    zj, cj = residue_constants(poles, profile, t, x)
    b = np.stack([np.conj(a[..., 1]), -np.conj(a[..., 0])], axis=-1)
    S = 1.0 / (zj[:, None] - np.conj(zj)[None, :])
    res = a - cj[..., None] * np.einsum("jk,...kc->...jc", S, b)
    res[..., 0] -= cj
    worst = np.max(np.abs(res), axis=(-2, -1)) / np.max(np.abs(cj), axis=-1)
    assert np.max(worst) < 1e-14


def test_overflowing_residue_constant_refused():
    # c_j = m_j e^{-2i z_j t} overflows once 2 Im z_j t passes ~709: the
    # closed form wrote NaN
    poles = [(0.5j, 1.0 + 0.0j)]
    with pytest.raises(SingularResidueSystem, match="overflows"):
        soliton_closed_form(poles, DELTA, [0.0, 1000.0], 0.0)
    # 2 Im z t = 700 still solves, to the field's e^{-700} tail
    E, _ = soliton_closed_form(poles, DELTA, 700.0, 0.0)
    assert np.isfinite(E) and abs(E) < 1e-300


def test_overflowing_residue_system_refused():
    # a pole 1e-310 above the axis: c_j is finite, 1/(z_j - conj z_j)
    # overflows; both residue systems refuse, and no warning escapes
    poles = [(1e-310j, 1.0 + 0.0j)]
    c = contour_build(n_panels=4, nodes_per_panel=8)
    for call in (lambda: soliton_closed_form(poles, DELTA, [0.0, 1.0], 0.5),
                 lambda: solve_stamp(c, identity_jump(c),
                                     residue_constants(poles, DELTA, 1.0, 0.5))):
        with pytest.raises(SingularResidueSystem, match="not finite"):
            call()


class TestResidueRoute:
    """The residue route against `soliton_closed_form` on a full axis
    jump.  Gauge the soliton's M by D = diag(delta, 1/delta) T, where
    delta = e^h, h = C[f] for f(s) = 0.3 e^{-s^2} (h = 0.15 w above the
    axis, w the Faddeeva function, and delta(conj z) = 1/conj delta(z)),
    and T = [[1, psi], [0, 1]] above the axis, [[1, 0], [chi, 1]] below
    it, psi and chi analytic there and O(1/z^2).  M D has the jump
    D+^{-1} D-, the constants c_j / delta(z_j)^2 and the soliton's E.
    psi(z) = (3i/(z + 3i))^16 / 2 makes the jump I to 1e-12 beyond the
    window; chi(z) = -0.7 conj(psi(conj z))."""

    poles = [(0.5j, 1.0 + 0.0j), (-0.6 + 0.9j, 0.4 - 1.5j)]

    @staticmethod
    def gauge(z, up=None):
        """delta and the off-diagonal entry of T at z, above the axis
        where up (default: where Im z > 0), else below it."""
        up = z.imag > 0 if up is None else up
        zu = np.where(up, z, np.conj(z))
        delta, psi = np.exp(0.15 * wofz(zu)), 0.5 * (3j / (zu + 3j)) ** 16
        return (np.where(up, delta, 1.0 / np.conj(delta)),
                np.where(up, psi, -0.7 * np.conj(psi)))

    @classmethod
    def setup_class(cls):
        """The one contour, with its Cauchy kernel, and the jump on it."""
        c = contour_build(window=(-16.0, 16.0), n_panels=24, nodes_per_panel=16)
        lam = c.nodes
        _, psi = cls.gauge(lam + 0j, up=True)
        _, chi = cls.gauge(lam + 0j, up=False)
        ef = np.exp(0.3 * np.exp(-lam ** 2))
        # J = T+^{-1} diag(1/ef, ef) T-, entry by entry
        cls.c, cls.J = c, np.stack(
            [1.0 / ef - psi * ef * chi, -psi * ef, ef * chi, ef],
            axis=-1).reshape(-1, 2, 2)

    def solve(self, t, x):
        """zj, delta(z_j) and one `RHResult` per stamp of the arrays t and
        x, all solved as one block."""
        zj, cj = residue_constants(self.poles, LOR, t, x)
        delta, _ = self.gauge(zj)
        J = np.broadcast_to(self.J, (len(t),) + self.J.shape)
        return zj, delta, sie_solve_block(self.c, J, (zj, cj / delta ** 2))

    def test_field_matches_closed_form(self):
        t, x = np.array([0.0, 0.8, -1.2, 4.0]), np.array([0.0, 0.3, 0.6, 0.5])
        *_, out = self.solve(t, x)
        E_closed, _ = soliton_closed_form(self.poles, LOR, t, x)
        for res, E in zip(out, E_closed):
            assert res.diagnostics["residue_cond"] < 1e2
            assert abs(res.E - E) < 1e-8

    def test_first_row_matches_gauged_soliton(self):
        # residues u_j / delta(z_j) of m12 at z_j and conj(v_j / delta(z_j))
        # of m11 at conj z_j; m = e1 + P + C[(e1 + P + q)(I-J)] off the
        # axis against the first row of M D
        t, x = 0.3, 0.1
        zj, delta, [res] = self.solve([t], [x])
        c, J = self.c, self.J
        _, a = soliton_closed_form(self.poles, LOR, t, x)
        u, r = res.residues[:2], res.residues[2:]
        assert np.max(np.abs(u - a[:, 0] / delta)) < 1e-8
        assert np.max(np.abs(r - np.conj(a[:, 1] / delta))) < 1e-8

        def pole_part(z):
            return np.stack([np.sum(r / (z[:, None] - np.conj(zj)), axis=1),
                             np.sum(u / (z[:, None] - zj), axis=1)], axis=1)

        lam, w = c.nodes, c.weights
        mu = np.array([1.0, 0.0]) + pole_part(lam) + res.Q
        dens = np.einsum("ka,kab->kb", mu, np.eye(2) - J)
        zs = np.array([2.0 + 1.0j, 0.5 + 2.5j, -1.0 - 2.0j, 0.5 - 1.0j])
        m = (np.array([1.0, 0.0]) + pole_part(zs)
             + (w / (lam - zs[:, None])) @ dens / (2j * np.pi))
        M = soliton_evaluate_M(self.poles, LOR, t, x, zs)[:, 0]
        d, off = self.gauge(zs)
        row = np.stack([M[:, 0] * d, M[:, 1] / d], axis=1)     # M diag(d, 1/d)
        up = zs.imag > 0
        row[up, 1] += row[up, 0] * off[up]
        row[~up, 0] += row[~up, 1] * off[~up]
        assert np.max(np.abs(m - row)) < 1e-8


class TestReconstructF:
    def setup_method(self):
        self.prof = BroadeningProfile.lorentzian(1.0, sign=-1)
        self.poles = [(0.5j, 1.0 + 0.0j)]

    def evalM(self, t, x, zs):
        return soliton_evaluate_M(self.poles, self.prof, t, x, zs)

    def test_matches_closed_form_medium(self):
        t, x = 0.8, 0.4
        lam = np.array([-1.5, -0.3, 0.0, 0.7, 2.0])
        N, rho = reconstruct_F(self.evalM, self.prof, t, x, lam,
                               delta=0.02, hx=1e-3)
        M = soliton_evaluate_M(self.poles, self.prof, t, x,
                               lam.astype(complex))
        sig = np.diag([1.0, -1.0]).astype(complex)
        F = M @ sig @ dagger(M)
        assert np.max(np.abs(N - F[:, 0, 0].real)) < 5e-3
        assert np.max(np.abs(rho - F[:, 0, 1])) < 5e-3
        assert np.max(np.abs(N ** 2 + np.abs(rho) ** 2 - 1.0)) < 1e-2

    def test_weight_guard(self):
        prof = BroadeningProfile.delta_approx(1e-3, sign=-1)
        with pytest.raises(WeightVanishes):
            reconstruct_F(self.evalM, prof, 0.0, 0.0, np.array([5.0]))


class TestReconstructFNodes:
    def make_solves(self, r_amp, t, x, hx):
        c = contour_build(window=(-16, 16), n_panels=24, nodes_per_panel=16)
        lam = c.nodes

        def solve(xv):
            J = jump_wholeline(t, xv, lam, r_amp * np.exp(-lam ** 2), LOR)
            return J, sie_solve_full(c, J)[0]

        J, Q = solve(x)
        J_p, Q_p = solve(x + hx)
        J_m, Q_m = solve(x - hx)
        return c, lam, J, Q, J_p, Q_p, J_m, Q_m

    def test_trivial_gives_rest_state(self):
        c, lam, J, Q, J_p, Q_p, J_m, Q_m = \
            self.make_solves(0.0, 0.3, 0.5, 1e-3)
        lam_out, N, rho = reconstruct_F_nodes(lam, Q, Q_p, Q_m,
                                              J, J_p, J_m, LOR, 1e-3)
        assert np.max(np.abs(N - 1.0)) < 1e-10
        assert np.max(np.abs(rho)) < 1e-10

    def test_sphere_and_route_agreement(self):
        t, x, hx = 0.6, 0.8, 1e-3
        c, lam, J, Q, J_p, Q_p, J_m, Q_m = \
            self.make_solves(0.3, t, x, hx)
        mask = np.abs(lam) < 3.0
        lam_out, N, rho = reconstruct_F_nodes(lam, Q, Q_p, Q_m,
                                              J, J_p, J_m, LOR, hx,
                                              node_mask=mask)
        assert np.max(np.abs(N ** 2 + np.abs(rho) ** 2 - 1.0)) < 1e-6

        # independent off-axis route through evaluate_M
        cache = {}

        def evalM(tv, xv, zs):
            key = round(xv, 12)
            if key not in cache:
                Jx = jump_wholeline(tv, xv, lam,
                                    0.3 * np.exp(-lam ** 2), LOR)
                cache[key] = (Jx, sie_solve_full(c, Jx)[0])
            Jx, Qx = cache[key]
            return evaluate_M(Qx, c, Jx, zs)

        targets = lam_out[::16]
        N2, rho2 = reconstruct_F(evalM, LOR, t, x, targets,
                                 delta=0.16, hx=hx)
        idx = np.arange(lam_out.size)[::16]
        assert np.max(np.abs(N[idx] - N2)) < 2e-2
        assert np.max(np.abs(rho[idx] - rho2)) < 2e-2
