"""AKNS generators, medium transform, and equation residuals."""

import numpy as np
import pytest

from mbrh.broadening import BroadeningProfile, eta_boundary, eta_eval
from mbrh.errors import GridCoverage, StencilTooCoarse
from mbrh.lax import (
    U,
    V,
    MediumSlice,
    check_coverage,
    conservation_check,
    coupling_matrix,
    mb_residual,
    medium_from_rho,
    medium_transform,
)
from mbrh.mat2 import SIGMA2, SIGMA3, dagger, sigma2_conj


def _trivial_slice(grid):
    return MediumSlice(lam_grid=grid, N=np.ones(grid.size),
                       rho=np.zeros(grid.size, complex))


class TestCauchyTransformF:
    def test_constant_sigma3_offaxis(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        grid = np.linspace(-15, 15, 301)
        s = _trivial_slice(grid)
        z = 2j
        G = medium_transform(p, grid, z)(s)
        want = (z - eta_eval(p, z)) * SIGMA3
        assert np.max(np.abs(G - want)) < 1e-12

    def test_constant_sigma3_boundary(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-15, 15, 301)
        s = _trivial_slice(grid)
        lam = 0.7
        Gp = medium_transform(p, grid, lam, boundary="+")(s)
        ev = eta_boundary(p, lam)
        assert np.max(np.abs(Gp - ev.g_plus[0] * SIGMA3)) < 1e-12
        Gm = medium_transform(p, grid, lam, boundary="-")(s)
        assert np.max(np.abs(Gm - ev.g_minus[0] * SIGMA3)) < 1e-12

    def test_generic_slice_vs_brute_trapezoid(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-8, 8, 16001)
        rho = 0.5 * np.exp(-grid ** 2) * (1 + 0.3j)
        s = medium_from_rho(grid, rho)
        z = 1 + 1j
        G = medium_transform(p, grid, z)(s)
        # brute oracle: trapezoid of the full integrand, dense where the
        # table lives (refinement divides the table spacing exactly) and
        # coarse on the sigma_3 tails
        sb = np.concatenate([
            np.linspace(-20000, -8, 400_001)[:-1],
            np.linspace(-8, 8, 3_200_001),
            np.linspace(8, 20000, 400_001)[1:],
        ])
        rho_b = np.interp(sb, grid, rho.real) + 1j * np.interp(sb, grid, rho.imag)
        N_b = np.interp(sb, grid, s.N, left=1.0, right=1.0)
        N_b[np.abs(sb) > 8] = 1.0
        rho_b[np.abs(sb) > 8] = 0.0
        nb = p.n(sb)
        kern = nb / (sb - z)
        want = np.empty((2, 2), complex)
        want[0, 0] = 0.25 * np.trapezoid(N_b * kern, sb)
        want[0, 1] = 0.25 * np.trapezoid(rho_b * kern, sb)
        want[1, 0] = 0.25 * np.trapezoid(np.conj(rho_b) * kern, sb)
        want[1, 1] = -want[0, 0]
        assert np.max(np.abs(G[0] - want)) < 1e-8

    def test_one_transform_serves_every_slice(self):
        # the (grid, z) work is done once; each slice only changes the data
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-10, 10, 401)
        lam = grid[::40]
        z = lam + 0.3j
        offaxis = medium_transform(p, grid, z)
        plus = medium_transform(p, grid, lam, boundary="+")
        for amp in (0.0, 0.2, 0.5):
            s = medium_from_rho(grid, amp * np.exp(-grid ** 2) * (1 - 0.4j))
            fresh = medium_transform(p, grid, z)(s)
            assert np.array_equal(offaxis(s), fresh)
            assert np.array_equal(plus(s), medium_transform(
                p, grid, lam, boundary="+")(s))
            assert np.array_equal(fresh[:, 1, 1], -fresh[:, 0, 0])   # traceless

    def test_coverage_guard(self):
        grid = np.linspace(-6, 6, 601)
        vals = np.exp(-grid ** 2 / 4)
        p = BroadeningProfile.tabulated(grid, vals, sign=-1)
        with pytest.raises(GridCoverage):
            check_coverage(p, np.linspace(-1, 1, 51))
        with pytest.raises(GridCoverage):
            medium_transform(p, np.linspace(-1, 1, 51), 0.5j)
        check_coverage(p, grid)   # full hull passes


class TestAknsMatrices:
    def test_free_case(self):
        lam = 1.7
        assert np.allclose(U(lam, 0.0), -1j * lam * SIGMA3)
        assert np.allclose(V(lam, 0.0, np.zeros((2, 2))), 1j * lam * SIGMA3)

    def test_pure_coupling(self):
        assert np.allclose(U(0.0, 2.0), np.array([[0, -1], [1, 0]]))

    def test_H_antihermitian(self):
        H = coupling_matrix(1 + 1j)
        assert np.max(np.abs(H + dagger(H))) < 1e-15

    def test_linear_split(self):
        # the Magnus loops build U(z, 0) and V(z, 0, 0) once per propagation
        # and add the E and G parts at each node
        rng = np.random.default_rng(5)
        z = rng.normal(size=7) + 1j * rng.normal(size=7)
        E = complex(rng.normal(), rng.normal())
        G = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
        assert np.max(np.abs(U(z, E) - (U(z, 0.0) + U(0.0, E)))) < 1e-15
        assert np.max(np.abs(V(z, E, G) - (V(z, 0.0, 0.0) + V(0.0, E, G)))) < 1e-14

    def test_sigma2_reduction_of_U(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = complex(rng.normal(), rng.normal())
            E = complex(rng.normal(), rng.normal())
            assert np.max(np.abs(U(z, E) - sigma2_conj(U(np.conj(z), E)))) < 1e-14

    def test_sigma2_reduction_of_V(self):
        # G inherits the reduction from Hermitian F, so V does too
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-10, 10, 801)
        s = medium_from_rho(grid, 0.4 * np.exp(-grid ** 2) * (0.6 - 0.2j))
        z = 0.8 + 0.5j
        E = 0.3 + 0.1j
        Vz = V(z, E, medium_transform(p, grid, z)(s))
        Vc = V(np.conj(z), E, medium_transform(p, grid, np.conj(z))(s))
        assert np.max(np.abs(Vz - sigma2_conj(Vc))) < 1e-12


class TestConservation:
    def test_trivial(self):
        grid = np.linspace(-1, 1, 5)
        assert conservation_check(_trivial_slice(grid)) == 0.0

    def test_on_sphere(self):
        grid = np.zeros(1)
        s = MediumSlice(grid, N=np.array([0.6]), rho=np.array([0.8 + 0j]))
        assert conservation_check(s) < 1e-15

    def test_off_sphere(self):
        grid = np.zeros(1)
        s = MediumSlice(grid, N=np.array([0.6]), rho=np.array([0.9 + 0j]))
        assert abs(conservation_check(s) - 0.17) < 1e-12


class _State:
    def __init__(self, t, x, lam, E, rho, N):
        self.t_grid, self.x_grid, self.lam_grid = t, x, lam
        self.E, self.rho, self.N = E, rho, N


def _state_from_E(t, x, lam, Efun):
    E = np.zeros((t.size, x.size), complex)
    E += Efun(t[:, None], x[None, :])
    rho = np.zeros((t.size, x.size, lam.size), complex)
    N = np.ones((t.size, x.size, lam.size))
    return _State(t, x, lam, E, rho, N)


class TestMBResidual:
    def setup_method(self):
        self.p = BroadeningProfile.lorentzian(1.0, sign=-1)
        self.lam = np.linspace(-10, 10, 41)

    def test_trivial_zero(self):
        t = np.linspace(0, 1, 11)
        x = np.linspace(0, 1, 11)
        st = _state_from_E(t, x, self.lam, lambda tt, xx: 0.0 * tt)
        assert mb_residual(st, self.p) == (0.0, 0.0, 0.0)

    def test_quadratic_field_exact_fd(self):
        # central differences are exact on quadratics, so the transport
        # residual equals the analytic value of E_t + E_x on the stencil
        t = np.linspace(0, 1, 21)
        x = np.linspace(0, 2, 21)
        st = _state_from_E(t, x, self.lam, lambda tt, xx: tt ** 2 * xx ** 2)
        r1, r2, r3 = mb_residual(st, self.p)
        tt, xx = np.meshgrid(t[1:-1], x[1:-1], indexing="ij")
        want = np.max(np.abs(2 * tt * xx ** 2 + 2 * tt ** 2 * xx))
        assert abs(r1 - want) < 1e-10
        assert abs(r2 - np.max(np.abs(st.E[1:-1]))) < 1e-12
        assert r3 == 0.0

    def test_second_order_in_stencil(self):
        errs = []
        for npts in (41, 81):
            t = np.linspace(0, 1, npts)
            x = np.linspace(0, 1, npts)
            st = _state_from_E(t, x, self.lam,
                               lambda tt, xx: np.sin(3 * tt + 0.0 * xx))
            r1, _, _ = mb_residual(st, self.p)
            # analytic transport residual is 3 cos(3t); excess is FD error
            errs.append(abs(r1 - 3.0 * np.max(np.abs(np.cos(3 * t[1:-1])))))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.8

    def test_broken_solution_detected(self):
        t = np.linspace(0, 1, 11)
        x = np.linspace(0, 1, 11)
        st = _state_from_E(t, x, self.lam, lambda tt, xx: 0.0 * tt)
        st.E = st.E + 0.1
        _, r2, _ = mb_residual(st, self.p)
        assert r2 >= 1e-2

    def test_stencil_guard(self):
        t = np.linspace(0, 1, 2)
        x = np.linspace(0, 1, 11)
        st = _state_from_E(t, x, self.lam, lambda tt, xx: 0.0 * tt)
        with pytest.raises(StencilTooCoarse):
            mb_residual(st, self.p)
