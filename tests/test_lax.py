"""AKNS generators, medium transform, and equation residuals."""

import numpy as np
import pytest

from mbrh.broadening import BroadeningProfile, eta_boundary, eta_eval
from mbrh.errors import GridCoverage, PrincipalValueFailure
from mbrh.lax import (
    MediumSlice,
    check_coverage,
    medium_from_rho,
    medium_transform,
)
from mbrh.mat2 import dagger
from references import (
    SIGMA3,
    U,
    V,
    StencilTooCoarse,
    coupling_matrix,
    mb_residual,
    medium_matrix,
    medium_transform_bank,
    medium_transform_offaxis,
    sigma2_conj,
)


def _trivial_slice(grid):
    return MediumSlice(N=np.ones(grid.size), rho=np.zeros(grid.size, complex))


class TestCauchyTransformF:
    def test_constant_sigma3_offaxis(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        grid = np.linspace(-15, 15, 301)
        s = _trivial_slice(grid)
        z = 2j
        G = medium_matrix(medium_transform(p, grid, z)(s))
        want = (z - eta_eval(p, z)) * SIGMA3
        assert np.max(np.abs(G - want)) < 1e-12

    def test_constant_sigma3_boundary(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-15, 15, 301)
        s = _trivial_slice(grid)
        ev = eta_boundary(p, 0.7)
        Gp, Gm = medium_matrix(medium_transform(p, grid, ev)(s))
        assert np.max(np.abs(Gp - ev.g_plus[0] * SIGMA3)) < 1e-12
        assert np.max(np.abs(Gm - ev.g_minus[0] * SIGMA3)) < 1e-12

    def test_generic_slice_vs_brute_trapezoid(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-8, 8, 16001)
        rho = 0.5 * np.exp(-grid ** 2) * (1 + 0.3j)
        s = medium_from_rho(rho)
        z = 1 + 1j
        G = medium_matrix(medium_transform(p, grid, z)(s))
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
        ev = eta_boundary(p, lam)
        offaxis = medium_transform(p, grid, z)
        boundary = medium_transform(p, grid, ev)
        for amp in (0.0, 0.2, 0.5):
            s = medium_from_rho(amp * np.exp(-grid ** 2) * (1 - 0.4j))
            fresh = medium_transform(p, grid, z)(s)
            assert np.array_equal(offaxis(s), fresh)
            assert np.array_equal(boundary(s), medium_transform(p, grid, ev)(s))

    def test_coverage_guard(self):
        grid = np.linspace(-6, 6, 601)
        vals = np.exp(-grid ** 2 / 4)
        p = BroadeningProfile.tabulated(grid, vals, sign=-1)
        with pytest.raises(GridCoverage):
            check_coverage(p, np.linspace(-1, 1, 51))
        with pytest.raises(GridCoverage):
            medium_transform(p, np.linspace(-1, 1, 51), 0.5j)
        check_coverage(p, grid)   # full hull passes


class TestStackedSlices:
    """G of m stacked slices is the stack of the m single-slice G."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.p = BroadeningProfile.lorentzian(1.0, sign=-1)
        self.grid = np.linspace(-20, 20, 161)
        bump = np.exp(-self.grid ** 2 / 2)
        self.rho = 0.4 * bump * (rng.uniform(-1, 1, (5, 1))
                                 + 1j * rng.uniform(-1, 1, (5, 1)))

    def _check(self, G, cols=slice(None)):
        stacked = medium_matrix(G(medium_from_rho(self.rho)))[:, cols]
        single = np.array([medium_matrix(G(medium_from_rho(r)))[cols]
                           for r in self.rho])
        assert stacked.shape == single.shape
        assert np.max(np.abs(stacked - single)) <= 1e-15 * np.max(np.abs(single))

    @pytest.mark.parametrize("bank", ["+", "-"])
    def test_boundary(self, bank):
        # the boundary form returns the + bank on the first grid.size
        # columns and the - bank on the last
        ev = eta_boundary(self.p, self.grid)
        n = self.grid.size
        self._check(medium_transform(self.p, self.grid, ev),
                    slice(0, n) if bank == "+" else slice(n, None))

    def test_off_axis(self):
        z = np.array([0.3 + 0.5j, -2.0 + 1e-3j, 4.0 + 3.0j])
        self._check(medium_transform(self.p, self.grid, z))

    def test_one_bad_row_refused(self):
        # the targets include the grid ends, where the p.v. integral of a
        # row that has not vanished diverges
        ev = eta_boundary(self.p, self.grid)
        G = medium_transform(self.p, self.grid, ev)
        rho = self.rho.copy()
        rho[3, -1] = 0.1
        G(medium_from_rho(np.delete(rho, 3, axis=0)))
        with pytest.raises(PrincipalValueFailure):
            G(medium_from_rho(rho))

    @pytest.mark.parametrize("end", [0, -1])
    @pytest.mark.parametrize("value", [0.1, 0.1j, 1e-3 * (1 + 1j)])
    def test_channel_not_vanishing_at_an_end_refused(self, end, value):
        # real or imaginary polarization left at either grid end: the end
        # test reads the complex channels' magnitudes, so a channel whose
        # real or imaginary part vanishes there is refused as well
        G = medium_transform(self.p, self.grid, eta_boundary(self.p, self.grid))
        rho = self.rho[0].copy()
        rho[end] = value
        with pytest.raises(PrincipalValueFailure):
            G(medium_from_rho(rho))


class TestOneRealProduct:
    """The one real product of each form against one complex product per
    channel (`references.medium_transform_offaxis` / `_bank`)."""

    p = BroadeningProfile.lorentzian(1.0, sign=-1)
    grid = np.linspace(-20, 20, 161)

    def _slices(self):
        rng = np.random.default_rng(4)
        bump = np.exp(-self.grid ** 2 / 2)
        return medium_from_rho(0.5 * bump * (
            rng.uniform(-1, 1, (4, 1)) + 1j * rng.uniform(-1, 1, (4, 1))))

    @staticmethod
    def _rel(got, want):
        got, want = np.array(got), np.array(want)
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def test_off_axis(self):
        z = np.array([0.3 + 0.5j, -2.0 + 1e-3j, 4.0 + 3.0j, 19.0 + 0.1j])
        s = self._slices()
        got = medium_transform(self.p, self.grid, z)(s)
        assert self._rel(got, medium_transform_offaxis(self.p, self.grid, z, s)) < 1e-14

    def test_boundary(self):
        ev = eta_boundary(self.p, self.grid)
        s = self._slices()
        got = np.array(medium_transform(self.p, self.grid, ev)(s))
        n = self.grid.size
        for bank, cols in (("+", slice(0, n)), ("-", slice(n, None))):
            want = medium_transform_bank(self.p, self.grid, ev, bank, s)
            assert self._rel(got[..., cols], want) < 1e-14


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
        s = medium_from_rho(0.4 * np.exp(-grid ** 2) * (0.6 - 0.2j))
        z = 0.8 + 0.5j
        E = 0.3 + 0.1j
        Vz = V(z, E, medium_matrix(medium_transform(p, grid, z)(s)))
        Vc = V(np.conj(z), E,
               medium_matrix(medium_transform(p, grid, np.conj(z))(s)))
        assert np.max(np.abs(Vz - sigma2_conj(Vc))) < 1e-12


class TestConservation:
    """`medium_from_rho` puts a slice on the sphere N^2 + |rho|^2 = 1."""

    def test_trivial(self):
        s = medium_from_rho(np.zeros(5))
        assert np.array_equal(s.N, np.ones(5))
        assert np.max(np.abs(s.N ** 2 + np.abs(s.rho) ** 2 - 1.0)) == 0.0

    def test_on_sphere(self):
        s = medium_from_rho(np.array([0.8 + 0j]))
        assert abs(s.N[0] - 0.6) < 1e-15
        assert np.max(np.abs(s.N ** 2 + np.abs(s.rho) ** 2 - 1.0)) < 1e-15

    def test_off_sphere(self):
        # |rho| > 1 has no point on the sphere
        with pytest.raises(ValueError):
            medium_from_rho(np.array([1.1 + 0j]))


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
