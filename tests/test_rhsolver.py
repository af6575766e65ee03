"""Contour operator, singular-integral solve, field and medium readout."""

import numpy as np
import pytest

from mbrh import rhsolver
from mbrh.broadening import BroadeningProfile, eta_boundary, eta_eval
from mbrh.errors import (
    EmptyContour,
    IllConditioned,
    PosdefViolated,
    SingularResidueSystem,
    TooCloseToContour,
    WeightVanishes,
)
from mbrh.jump import JumpData, jump_mixed, jump_wholeline, posdef_check, spectral_data
from mbrh.mat2 import det2, dagger, inv2
from mbrh.rhsolver import (
    ContourSigma,
    circle_panel,
    contour_build,
    evaluate_M,
    reconstruct_F,
    reconstruct_F_nodes,
    segment_panel,
    sie_solve,
    soliton_circle_jump,
    soliton_closed_form,
    soliton_evaluate_M,
)
from mbrh.spectral import ScenarioData, jost_phi

LOR = BroadeningProfile.lorentzian(1.0, sign=-1)


def identity_jump(contour, t=0.0, x=0.0):
    n = contour.n_nodes
    J = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    return JumpData(problem_class="whole-line", t=t, x=x,
                    nodes=contour.nodes, J=J)


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
        assert abs(np.sum(w * np.exp(1j * z.real)) - want) < 1e-12

    def test_circle_weights_clockwise(self):
        p = circle_panel(0.5j, 0.2, 32)
        # clockwise residue integral: contour integral of 1/(z - c) = -2 pi i
        val = np.sum(p.weights / (p.nodes - 0.5j))
        assert abs(val - (-2j * np.pi)) < 1e-12
        # conjugation closure across a mirror pair of circles
        q = circle_panel(-0.5j, 0.2, 32)
        both = np.concatenate([p.nodes, q.nodes])
        dist = np.min(np.abs(np.conj(both)[:, None] - both[None, :]), axis=1)
        assert np.max(dist) < 1e-12

    def test_empty_contour(self):
        with pytest.raises(EmptyContour):
            contour_build(include_real=False, circles=())

    def test_segment_diff_matrix(self):
        p = segment_panel(-1.0, 2.0, 14)
        f = np.exp(0.7 * p.nodes.real)
        df = p.diff.real @ f
        assert np.max(np.abs(df - 0.7 * f)) < 1e-9


class TestCauchyPlus:
    def test_real_axis_half_plane_projections(self):
        # C+ reproduces boundary values analytic above, kills those below
        c = contour_build(window=(-30.0, 30.0), n_panels=60,
                          nodes_per_panel=16)
        CP = c.cauchy_plus()
        z = c.nodes
        f_up = 1.0 / (z - (-0.4 - 1.5j)) ** 4      # analytic in upper half
        f_dn = 1.0 / (z - (0.9 + 1.2j)) ** 4       # analytic in lower half
        # away from the window edges (the tail truncation dominates there)
        m = np.abs(z.real) < 20
        assert np.max(np.abs((CP @ f_up - f_up)[m])) < 1e-6
        assert np.max(np.abs((CP @ f_dn)[m])) < 1e-6

    def test_circle_projection(self):
        c = ContourSigma(panels=[circle_panel(1j, 0.3, 48)])
        CP = c.cauchy_plus()
        z = c.nodes
        # plus side is the exterior of a clockwise circle
        f_out = 1.0 / (z - (1j + 0.1 + 0.05j))     # pole inside -> plus fn
        f_in = (z - 1j) ** 2                       # analytic inside -> killed
        assert np.max(np.abs(CP @ f_out - f_out)) < 1e-8
        assert np.max(np.abs(CP @ f_in)) < 1e-12


class TestSieSolve:
    def test_trivial_jump(self):
        c = contour_build(n_panels=12, nodes_per_panel=8)
        res = sie_solve(c, identity_jump(c))
        assert np.max(np.abs(res.Q)) < 1e-13
        assert abs(res.E) < 1e-13
        assert np.max(np.abs(res.m)) < 1e-13
        assert res.diagnostics["residual"] < 1e-13

    def test_born_regime_operator(self):
        c = contour_build(window=(-12, 12), n_panels=24, nodes_per_panel=12)
        lam = c.nodes.real
        r = 0.01 * np.exp(-lam ** 2)
        jd = jump_wholeline(1.0, 0.5, lam, r, LOR)
        res = sie_solve(c, jd)
        CP = c.cauchy_plus()
        R = np.einsum("ij,jab->iab", CP, np.eye(2) - jd.J)
        # first Born correction is quadratic in r
        assert np.max(np.abs(res.Q - R)) < 0.05 * np.max(np.abs(R))

    def test_linear_limit_reconstructs_gaussian_field(self):
        # r(lam) = 0.5 * Fourier transform of E at this order, so the
        # moment formula must return E(t) = (2 eps/sqrt(pi)) e^{-t^2}
        # for r = eps e^{-lam^2} at x = 0
        eps = 0.01
        c = contour_build(window=(-12, 12), n_panels=24, nodes_per_panel=16)
        lam = c.nodes.real
        for t in (0.0, 0.4, -0.8):
            jd = jump_wholeline(t, 0.0, lam, eps * np.exp(-lam ** 2), LOR)
            res = sie_solve(c, jd)
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
        lam = c.nodes.real
        Phi0, A, B = jost_phi(sc, lam)
        r = B / A
        for t in (3.2, 4.0, 5.0):
            jd = jump_wholeline(t, 0.0, lam, r, LOR)
            res = sie_solve(c, jd)
            want = sc.E_in(t)
            assert abs(res.E - want) < 1e-3 * abs(want)

    def test_self_convergence_under_refinement(self):
        vals = []
        for (np_, nn) in ((16, 12), (32, 24)):
            c = contour_build(window=(-16, 16), n_panels=np_,
                              nodes_per_panel=nn)
            lam = c.nodes.real
            jd = jump_wholeline(0.7, 0.5, lam, 0.3 * np.exp(-lam ** 2), LOR)
            vals.append(sie_solve(c, jd).E)
        assert abs(vals[0] - vals[1]) < 1e-6

    def test_posdef_guard(self):
        c = contour_build(n_panels=6, nodes_per_panel=6)
        J = np.broadcast_to(np.diag([-2.0 + 0j, 1.0]),
                            (c.n_nodes, 2, 2)).copy()
        jd = JumpData(problem_class="whole-line", t=0.0, x=0.0,
                      nodes=c.nodes, J=J)
        with pytest.raises(PosdefViolated):
            sie_solve(c, jd)


def desk_stamps(ts=(2.0, 3.5, 6.0), xs=(0.0, 2.5)):
    """Mixed-problem jumps of the desk pulse on a 192-node real axis."""
    sc = ScenarioData(T=10.0, L=5.0,
                      E_in=lambda t: 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2)
                      + 0j * t,
                      E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                      rho0=None)
    c = contour_build(window=(-16.0, 16.0), n_panels=16, nodes_per_panel=12)
    lam = c.nodes.real
    _, Kp, Km = spectral_data(sc, LOR, lam, x_out=xs)
    ev = eta_boundary(LOR, lam)
    return c, [jump_mixed(t, x, ev, Kp[i], Km[i])
               for t in ts for i, x in enumerate(xs)]


def dense_operator(contour, jd):
    """I - T of the row-decoupled 2N x 2N system, and the right-hand side."""
    n = contour.n_nodes
    CP = contour.cauchy_plus()
    IJ = np.eye(2) - jd.J
    T = np.einsum("ij,jab->ibja", CP, IJ).reshape(2 * n, 2 * n)
    R = np.einsum("ij,jab->iab", CP, IJ)
    return np.eye(2 * n) - T, R


class TestKrylovPath:
    def test_matches_dense_solve_and_svd_condition(self):
        c, jds = desk_stamps()
        for jd in jds:
            res = sie_solve(c, jd)
            A, R = dense_operator(c, jd)
            Q = np.stack([np.linalg.solve(A, R[:, r, :].ravel()).reshape(-1, 2)
                          for r in range(2)], axis=1)
            assert np.max(np.abs(res.Q - Q)) < 1e-13
            d = res.diagnostics
            assert 0 < d["iterations"] <= rhsolver.KRYLOV_BUDGET
            sv = np.linalg.svd(A, compute_uv=False)
            kappa2 = sv[0] / sv[-1]
            # the Hessenberg estimate is a lower bound, and a tight one here
            assert 0.9 * kappa2 <= d["cond"] <= kappa2 * (1 + 1e-12)
            assert d["residual_rel"] < 1e-14
            assert d["posdef_min"] == posdef_check(jd)

    def test_budget_exhausted_falls_back_to_lu(self, monkeypatch):
        c, jds = desk_stamps(ts=(3.0,), xs=(1.0,))
        krylov = sie_solve(c, jds[0])
        monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", 2)
        lu = sie_solve(c, jds[0])
        assert krylov.diagnostics["iterations"] > 2
        assert lu.diagnostics["iterations"] == 0
        assert abs(lu.E - krylov.E) < 1e-14
        assert np.max(np.abs(lu.Q - krylov.Q)) < 1e-13
        assert lu.diagnostics["residual_rel"] < 1e-14

    def test_fallback_counted_in_field_grid(self, monkeypatch):
        from mbrh.cli import rh_field_grid
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
        assert diag_lu["lu_stamps"] == 2
        assert diag_lu["krylov_iters"] == {"p50": 0.0, "max": 0.0}
        assert np.max(np.abs(E_lu - E)) < 1e-14
        assert 0 < diag_lu["posdef_min"]["min"] <= diag_lu["posdef_min"]["p50"]

    def test_pole_circles_keep_lu_refusal(self):
        # real axis plus circles at +-i/2: the right-hand side lies in a
        # tiny invariant subspace, so a Krylov estimate reads ~1 while the
        # operator is ill-conditioned as |c_j|^2 ~ e^{t}; only LU refuses
        c = contour_build(window=(-16.0, 16.0), n_panels=16,
                          nodes_per_panel=12,
                          circles=[(0.5j, 0.15), (-0.5j, 0.15)])
        poles = [(0.5j, 1.0 + 0.0j)]
        jd = soliton_circle_jump(poles, LOR, 16.0, 0.0, c)
        with pytest.raises(IllConditioned):
            sie_solve(c, jd)
        ok = sie_solve(c, soliton_circle_jump(poles, LOR, 1.0, 0.0, c))
        assert ok.diagnostics["iterations"] == 0


class TestEvaluateM:
    def setup_method(self):
        self.c = contour_build(window=(-16, 16), n_panels=24,
                               nodes_per_panel=16)
        lam = self.c.nodes.real
        self.jd = jump_wholeline(0.5, 0.3, lam, 0.3 * np.exp(-lam ** 2), LOR)
        self.res = sie_solve(self.c, self.jd)

    def test_unimodular_off_contour(self):
        zs = np.array([2j, -3j, 1.5 + 2.5j, -4 - 1j])
        M = evaluate_M(self.res, self.c, self.jd, zs)
        assert np.max(np.abs(det2(M) - 1.0)) < 1e-6

    def test_moment_asymptotics(self):
        # M(z) - I - m/z = O(1/z^2)
        for R in (30.0, 60.0):
            z = np.array([R * np.exp(1j * np.pi / 3)])
            M = evaluate_M(self.res, self.c, self.jd, z)
            err = np.max(np.abs(M[0] - np.eye(2) - self.res.m / z[0]))
            assert err < 10.0 / R ** 2

    def test_too_close_guard(self):
        z0 = self.c.nodes[10] + 1e-8j
        with pytest.raises(TooCloseToContour):
            evaluate_M(self.res, self.c, self.jd, np.array([z0]))


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
        amp = np.array([abs(soliton_closed_form(self.poles, self.prof,
                                                t, x)[0]) for t in ts])
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


class TestPoleCircleRoute:
    def test_sie_on_circles_matches_residue_algebra(self):
        prof = BroadeningProfile.delta_approx(1e-3, sign=-1)
        poles = [(0.5j, 1.0 + 0.0j)]
        c = contour_build(include_real=False,
                          circles=[(0.5j, 0.15), (-0.5j, 0.15)],
                          circle_nodes=48)
        for t, x in ((0.0, 0.0), (0.8, 0.3), (-1.2, 0.6)):
            jd = soliton_circle_jump(poles, prof, t, x, c)
            res = sie_solve(c, jd)
            E_closed, _ = soliton_closed_form(poles, prof, t, x)
            assert abs(res.E - E_closed) < 1e-3
            assert abs(res.E - E_closed) < 1e-8  # spectral accuracy expected

    def test_circle_M_matches_meromorphic_M(self):
        prof = BroadeningProfile.delta_approx(1e-3, sign=-1)
        poles = [(0.5j, 1.0 + 0.0j)]
        c = contour_build(include_real=False,
                          circles=[(0.5j, 0.15), (-0.5j, 0.15)],
                          circle_nodes=48)
        jd = soliton_circle_jump(poles, prof, 0.3, 0.1, c)
        res = sie_solve(c, jd)
        zs = np.array([2.0 + 1.0j, -1.0 - 2.0j, 0.0 + 3.0j])
        M_sie = evaluate_M(res, c, jd, zs)
        M_exact = soliton_evaluate_M(poles, prof, 0.3, 0.1, zs)
        assert np.max(np.abs(M_sie - M_exact)) < 1e-8


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
        lam = c.nodes.real

        def solve(xv):
            jd = jump_wholeline(t, xv, lam, r_amp * np.exp(-lam ** 2), LOR)
            return jd, sie_solve(c, jd)

        jd, res = solve(x)
        jd_p, res_p = solve(x + hx)
        jd_m, res_m = solve(x - hx)
        return c, lam, jd, res, jd_p, res_p, jd_m, res_m

    def test_trivial_gives_rest_state(self):
        c, lam, jd, res, jd_p, res_p, jd_m, res_m = \
            self.make_solves(0.0, 0.3, 0.5, 1e-3)
        lam_out, N, rho = reconstruct_F_nodes(res, res_p, res_m,
                                              jd, jd_p, jd_m, LOR, 1e-3)
        assert np.max(np.abs(N - 1.0)) < 1e-10
        assert np.max(np.abs(rho)) < 1e-10

    def test_sphere_and_route_agreement(self):
        t, x, hx = 0.6, 0.8, 1e-3
        c, lam, jd, res, jd_p, res_p, jd_m, res_m = \
            self.make_solves(0.3, t, x, hx)
        mask = (np.abs(lam) < 3.0) & (jd.nodes.imag == 0.0)
        lam_out, N, rho = reconstruct_F_nodes(res, res_p, res_m,
                                              jd, jd_p, jd_m, LOR, hx,
                                              node_mask=mask)
        assert np.max(np.abs(N ** 2 + np.abs(rho) ** 2 - 1.0)) < 1e-6

        # independent off-axis route through evaluate_M
        cache = {}

        def evalM(tv, xv, zs):
            key = round(xv, 12)
            if key not in cache:
                jdx = jump_wholeline(tv, xv, lam,
                                     0.3 * np.exp(-lam ** 2), LOR)
                cache[key] = (jdx, sie_solve(c, jdx))
            jdx, rx = cache[key]
            return evaluate_M(rx, c, jdx, zs)

        targets = lam_out[::16]
        N2, rho2 = reconstruct_F(evalM, LOR, t, x, targets,
                                 delta=0.16, hx=hx)
        idx = np.arange(lam_out.size)[::16]
        assert np.max(np.abs(N[idx] - N2)) < 2e-2
        assert np.max(np.abs(rho[idx] - rho2)) < 2e-2
