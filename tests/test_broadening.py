"""Weight/phase-function module: normalization, eta, boundary values, curve."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from mbrh import broadening
from mbrh.broadening import (
    BroadeningProfile,
    average_weights,
    cauchy_pwlin,
    eta_boundary,
    eta_eval,
    gamma_trace,
    profile_normalize,
    pv_cauchy_pwlin,
)
from mbrh.errors import NonDecaying, PrincipalValueFailure, TooCloseToAxis, ZeroMass
from references import eta_quadrature


def _brute_eta(profile, z, half_width=4000.0, npts=4_000_001):
    """Independent oracle: plain trapezoid of the Cauchy integral on a huge grid."""
    s = np.linspace(-half_width, half_width, npts)
    return z - 0.25 * np.trapezoid(profile.n(s) / (s - z), s)


def _brute_pv(fgrid, fvals, lam):
    """Independent p.v. oracle: adaptive Cauchy-weight quadrature, panelwise
    so the interpolant is smooth on every subinterval (lam must be off-node)."""
    total = 0.0
    for a, b, fa, fb in zip(fgrid[:-1], fgrid[1:], fvals[:-1], fvals[1:]):
        d = (fb - fa) / (b - a)
        lin = lambda s: fa + d * (s - a)
        if a < lam < b:
            v, _ = quad(lin, a, b, weight="cauchy", wvar=lam,
                        epsabs=1e-13, epsrel=1e-13)
        else:
            v, _ = quad(lambda s: lin(s) / (s - lam), a, b,
                        epsabs=1e-13, epsrel=1e-13)
        total += v
    return total


def reference_cauchy(sgrid, f, z):
    """Panel-by-panel sum of the exact piecewise-linear Cauchy integral
    (the kernel body before the weight-matrix form), kept as a reference."""
    sgrid = np.asarray(sgrid, dtype=float)
    f = np.asarray(f)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    a, b = sgrid[:-1], sgrid[1:]
    d = (f[..., 1:] - f[..., :-1]) / (b - a)
    L = np.log((b[:, None] - z) / (a[:, None] - z))
    coeff = f[..., :-1, None] + d[..., None] * (z - a[:, None])
    return np.sum(coeff * L, axis=-2) + np.sum(f[..., 1:] - f[..., :-1], axis=-1)[..., None]


def reference_pv(sgrid, f, lam):
    """p.v. sum with the log|s_k - lam| terms grouped per node (the kernel
    body before the weight-matrix form), kept as a reference."""
    sgrid = np.asarray(sgrid, dtype=float)
    f = np.asarray(f)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    a, b = sgrid[:-1], sgrid[1:]
    d = (f[..., 1:] - f[..., :-1]) / (b - a)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(sgrid[:, None] - lam))
    cpan = f[..., :-1, None] + d[..., None] * (lam - a[:, None])
    coef = np.zeros(f.shape[:-1] + (sgrid.size, lam.size), dtype=cpan.dtype)
    coef[..., -1, :] = cpan[..., -1, :]
    coef[..., 0, :] = -cpan[..., 0, :]
    coef[..., 1:-1, :] = cpan[..., :-1, :] - cpan[..., 1:, :]
    term = coef * np.where(np.isinf(logs), 0.0, logs)
    return np.sum(term, axis=-2) + np.sum(f[..., 1:] - f[..., :-1], axis=-1)[..., None]


def _medium_like(grid):
    """Batched complex (3, Ns) data shaped like the medium deviations."""
    g = np.exp(-grid ** 2 / 8)
    return np.stack([(np.cos(grid) - 1.0) * g,
                     (0.3 + 0.7j) * np.sin(0.5 * grid) * g,
                     (0.2 - 0.4j) * grid * g])


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class TestNormalize:
    def test_rectangular_box(self):
        p = profile_normalize(BroadeningProfile.rectangular(0.5, sign=-1))
        assert p.n(0.0) == -1.0
        assert p.mass_between(-1.0, 1.0) == -1.0

    def test_lorentzian_unit_mass(self):
        p = profile_normalize(BroadeningProfile.lorentzian(1.0, sign=+1))
        val, _ = quad(lambda s: p.n(s), -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-10

    def test_tabulated_rescale(self):
        grid = np.linspace(-8, 8, 1601)
        raw = np.exp(-grid ** 2)
        raw *= 0.97 / np.trapezoid(raw, grid)      # raw mass 0.97
        p = profile_normalize(BroadeningProfile.tabulated(grid, raw, sign=-1))
        assert abs(np.trapezoid(p.values, grid) + 1.0) < 1e-10

    def test_zero_mass_rejected(self):
        grid = np.linspace(-1, 1, 101)
        with pytest.raises(ZeroMass):
            profile_normalize(BroadeningProfile.tabulated(grid, np.zeros(101)))

    def test_nondecaying_rejected(self):
        grid = np.linspace(-1, 1, 101)
        with pytest.raises(NonDecaying):
            profile_normalize(BroadeningProfile.tabulated(grid, np.ones(101)))


# ---------------------------------------------------------------------------
# eta off the axis
# ---------------------------------------------------------------------------

class TestEtaEval:
    def test_zero_weight_identity(self):
        # mass-0 hook: tabulated zeros, normalization deliberately bypassed
        grid = np.linspace(-2, 2, 41)
        p = BroadeningProfile.tabulated(grid, np.zeros(41))
        assert eta_eval(p, 1 + 2j) == 1 + 2j

    def test_lorentzian_closed_value(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        assert abs(eta_eval(p, 2j) - (23 / 12) * 1j) < 1e-14

    def test_closed_vs_quadrature(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        zs = np.array([2j, 0.3 + 0.7j, -1.1 - 0.4j, 5 - 2j])
        for z in zs:
            d = abs(eta_eval(p, z) - eta_quadrature(p, z))
            assert d < 1e-10

    def test_closed_vs_brute_trapezoid(self):
        p = BroadeningProfile.lorentzian(0.7, sign=-1)
        z = 0.4 + 1.3j
        assert abs(eta_eval(p, z) - _brute_eta(p, z)) < 1e-8

    def test_rectangular_vs_brute(self):
        # restrict the oracle grid to the box support (n is smooth there)
        p = BroadeningProfile.rectangular(0.5, sign=-1)
        for z in (1.5j, 0.2 - 0.8j, 2.0 + 0.3j):
            assert abs(eta_eval(p, z) - _brute_eta(p, z, half_width=0.5,
                                                   npts=2_000_001)) < 1e-8

    def test_tabulated_pwlin_vs_quadrature(self):
        grid = np.linspace(-6, 6, 2401)
        p = profile_normalize(
            BroadeningProfile.tabulated(grid, np.exp(-grid ** 2), sign=-1))
        z = 0.5 + 0.9j
        assert abs(eta_eval(p, z) - eta_quadrature(p, z)) < 1e-7

    def test_schwartz_symmetry(self):
        for p in (BroadeningProfile.lorentzian(1.0, sign=+1),
                  BroadeningProfile.rectangular(0.5, sign=-1),
                  BroadeningProfile.delta_approx(1e-2, sign=+1)):
            for z in (0.5j, 1 + 1j, -2 + 0.25j, 3 - 0.5j):
                assert abs(eta_eval(p, np.conj(z)) - np.conj(eta_eval(p, z))) < 1e-12

    def test_attenuator_sign_of_im(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        rng = np.random.default_rng(7)
        z = rng.uniform(-5, 5, 50) + 1j * rng.uniform(0.01, 3, 50)
        z = np.concatenate([z, np.conj(z)])
        assert np.all(np.sign(eta_eval(p, z).imag) == np.sign(z.imag))

    def test_axis_guards(self):
        p = BroadeningProfile.lorentzian(1.0)
        with pytest.raises(TooCloseToAxis):
            eta_eval(p, 2.0 + 0j)
        with pytest.raises(TooCloseToAxis):
            eta_quadrature(p, 1 + 1e-10j)


# ---------------------------------------------------------------------------
# boundary values on the real axis
# ---------------------------------------------------------------------------

class TestEtaBoundary:
    def test_lorentzian_origin(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        ev = eta_boundary(p, 0.0)
        assert abs(ev.g_plus[0] - 0.25j) < 1e-14
        assert abs(ev.g_minus[0] + 0.25j) < 1e-14
        assert abs(ev.eta_plus[0] + 0.25j) < 1e-14

    def test_rectangular_origin(self):
        p = BroadeningProfile.rectangular(0.5, sign=-1)
        ev = eta_boundary(p, 0.0)
        # p.v. part vanishes by symmetry; eta_pm(0) = -+ (pi i/4) n(0), n(0) = -1
        assert abs(ev.eta_plus[0] - 1j * np.pi / 4) < 1e-14
        assert abs(ev.eta_minus[0] + 1j * np.pi / 4) < 1e-14

    def test_rectangular_pv_vs_brute(self):
        p = BroadeningProfile.rectangular(0.5, sign=-1)
        lam = 0.3
        grid = np.linspace(-0.5, 0.5, 2)
        pv = _brute_pv(grid, p.n(grid), lam)
        ev = eta_boundary(p, lam)
        assert abs(0.25 * pv - ev.g_plus[0].real) < 1e-9

    def test_rectangular_edge_rejected(self):
        p = BroadeningProfile.rectangular(0.5, sign=-1)
        with pytest.raises(PrincipalValueFailure):
            eta_boundary(p, 0.5)

    def test_edge_message_names_shape_and_lambda(self):
        p = BroadeningProfile.delta_approx(0.25, sign=-1)
        with pytest.raises(PrincipalValueFailure,
                           match=r"delta_approx profile edge lambda = -0\.25"):
            eta_boundary(p, [0.0, -0.25, 0.25])
        assert list(p.on_edge([0.0, -0.25, 0.25, 1.0])) == [False, True, True, False]
        assert not np.any(BroadeningProfile.lorentzian(1.0).on_edge([0.25, 1.0]))

    @pytest.mark.parametrize("p", [
        BroadeningProfile.lorentzian(1.0, sign=-1),
        BroadeningProfile.lorentzian(0.5, sign=+1),
        BroadeningProfile.rectangular(0.55, sign=-1),
        BroadeningProfile.delta_approx(1e-3, sign=+1),
    ])
    def test_jump_identity(self, p):
        lam = np.linspace(-20, 20, 401)
        ev = eta_boundary(p, lam)
        jump = ev.eta_plus - ev.eta_minus + 0.5j * np.pi * ev.n
        assert np.max(np.abs(jump)) < 1e-10

    def test_tabulated_pv_oracle(self):
        grid = np.linspace(-6, 6, 1201)
        vals = np.exp(-grid ** 2)
        p = profile_normalize(BroadeningProfile.tabulated(grid, vals, sign=-1))
        for lam in (0.0521, 0.3733, 1.5047):
            ev = eta_boundary(p, lam)
            oracle = 0.25 * _brute_pv(p.grid, p.values, lam)
            assert abs(ev.g_plus[0].real - oracle) < 1e-7
        # imaginary parts carry the (pi/4) n weight
        ev = eta_boundary(p, 0.4)
        assert abs(ev.g_plus[0].imag - np.pi / 4 * p.n(0.4)) < 1e-14


# ---------------------------------------------------------------------------
# exact piecewise-linear Cauchy helpers
# ---------------------------------------------------------------------------

class TestPwlinCauchy:
    def test_offaxis_linear_exact(self):
        # f(s) = 2s + 1 on [0, 1]: int (2s+1)/(s-z) ds has a closed form
        grid = np.array([0.0, 0.4, 1.0])
        f = 2 * grid + 1
        z = 0.3 + 0.6j
        exact = 2.0 + (2 * z + 1) * np.log((1 - z) / (-z))
        got = cauchy_pwlin(grid, f, z)[0]
        assert abs(got - exact) < 1e-14

    def test_pv_on_node_matches_offnode_limit(self):
        grid = np.linspace(-1, 1, 201)
        f = np.cos(grid)
        lam_node = grid[100]
        on = pv_cauchy_pwlin(grid, f, lam_node)[0]
        near = pv_cauchy_pwlin(grid, f, lam_node + 1e-7)[0]
        assert abs(on - near) < 1e-4
        # even samples on a symmetric grid: the p.v. at 0 vanishes identically
        assert abs(on) < 1e-12

    def test_pv_end_node_target(self):
        # f(end) log|s - lam| diverges on an end node: refuse, do not drop it
        grid = np.linspace(-1, 1, 21)
        for lam in (-1.0, 1.0):
            with pytest.raises(PrincipalValueFailure):
                pv_cauchy_pwlin(grid, np.ones(21), lam)
        batch = np.stack([1.0 + grid, np.ones(21)])
        with pytest.raises(PrincipalValueFailure):
            pv_cauchy_pwlin(grid, batch, np.array([0.05, -1.0]))
        # data that vanish at the end: finite, and exact for linear f
        assert abs(pv_cauchy_pwlin(grid, 1.0 + grid, -1.0)[0] - 2.0) < 1e-14
        assert abs(pv_cauchy_pwlin(grid, 1.0 - grid, 1.0)[0] + 2.0) < 1e-14

    def test_pv_batched(self):
        grid = np.linspace(-2, 2, 401)
        fb = np.stack([np.exp(-grid ** 2), grid * np.exp(-grid ** 2)])
        lam = np.array([-0.5137, 0.0042, 0.7219])
        out = pv_cauchy_pwlin(grid, fb, lam)
        assert out.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert abs(out[i, j] - _brute_pv(grid, fb[i], lam[j])) < 1e-8


class TestWeightKernels:
    """pv_cauchy_pwlin / cauchy_pwlin as f @ W against the pre-weight-matrix
    kernel bodies and closed forms."""

    GRID = np.linspace(-20, 20, 384)

    @pytest.mark.parametrize("lam", [
        GRID,                                 # every target on a node
        GRID[:-1] + 0.37 * np.diff(GRID),     # every target off-node
        np.array([GRID[100], 0.0123, GRID[-1]]),
        1.2345,                               # scalar target
    ])
    def test_pv_matches_reference(self, lam):
        f = _medium_like(self.GRID)
        got = pv_cauchy_pwlin(self.GRID, f, lam)
        want = reference_pv(self.GRID, f, lam)
        assert got.shape == want.shape == (3, np.atleast_1d(lam).size)
        assert _rel(got, want) <= 1e-12
        # unbatched data keeps the 1-d output shape
        one = pv_cauchy_pwlin(self.GRID, f[1], lam)
        assert one.shape == (np.atleast_1d(lam).size,)
        assert _rel(one, got[1]) <= 1e-13

    @pytest.mark.parametrize("z", [
        np.linspace(-25, 25, 101) + 0.3j,
        np.array([0.5 - 2j, 3 + 1e-3j, GRID[7] + 0.05j]),
        1.0 + 2.0j,                           # scalar target
    ])
    def test_cauchy_matches_reference(self, z):
        f = _medium_like(self.GRID)
        got = cauchy_pwlin(self.GRID, f, z)
        want = reference_cauchy(self.GRID, f, z)
        assert got.shape == want.shape == (3, np.atleast_1d(z).size)
        assert _rel(got, want) <= 1e-12
        one = cauchy_pwlin(self.GRID, f[0].real, z)
        assert one.shape == (np.atleast_1d(z).size,)
        assert _rel(one, reference_cauchy(self.GRID, f[0].real, z)) <= 1e-12

    def test_single_panel_linear_closed_form(self):
        # f = alpha s + beta on [a, b]: the p.v. integral is
        # alpha (b - a) + (alpha lam + beta) log|(b - lam)/(a - lam)|
        a, b, alpha, beta = -0.7, 1.3, 0.8 - 0.2j, -0.35 + 1.1j
        grid = np.array([a, b])
        lam = np.array([-2.5, -0.1, 0.4, 1.0, 3.0])
        got = pv_cauchy_pwlin(grid, alpha * grid + beta, lam)
        exact = alpha * (b - a) + (alpha * lam + beta) * np.log(
            np.abs((b - lam) / (a - lam)))
        assert np.max(np.abs(got - exact)) < 1e-14

    def test_equal_shape_grids_never_share_weights(self):
        g1 = np.linspace(-4, 4, 81)
        g2 = np.linspace(-5, 3, 81)
        lam = np.linspace(-2.95, 2.95, 23)
        z = lam + 0.4j
        for _ in range(2):                    # interleaved grids, twice
            for g in (g1, g2):
                f = _medium_like(g)
                assert _rel(pv_cauchy_pwlin(g, f, lam),
                            reference_pv(g, f, lam)) <= 1e-12
                assert _rel(cauchy_pwlin(g, f, z),
                            reference_cauchy(g, f, z)) <= 1e-12
        # targets of equal shape but different values as well
        f = _medium_like(g1)
        assert _rel(pv_cauchy_pwlin(g1, f, lam + 0.01),
                    reference_pv(g1, f, lam + 0.01)) <= 1e-12

    def test_memo_under_threads(self):
        # no weights are kept between calls: concurrent calls on distinct
        # (grid, targets) pairs each get the weights of their own arrays
        grids = [np.linspace(-3 - 0.1 * k, 3, 61) for k in range(6)]
        lam = np.linspace(-2.5, 2.5, 17)

        def one(k):
            g = grids[k % len(grids)]
            f = _medium_like(g)
            return max(_rel(pv_cauchy_pwlin(g, f, lam), reference_pv(g, f, lam)),
                       _rel(cauchy_pwlin(g, f, lam + 0.2j),
                            reference_cauchy(g, f, lam + 0.2j)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(one, k) for k in range(60)]
                errs = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert max(errs) <= 1e-12

    def test_nan_data_raises(self):
        f = _medium_like(self.GRID)
        f[1, 50] = np.nan
        with pytest.raises(PrincipalValueFailure):
            pv_cauchy_pwlin(self.GRID, f, self.GRID[:10])
        with pytest.raises(PrincipalValueFailure):
            pv_cauchy_pwlin(self.GRID, f[1].real, 0.3)


# ---------------------------------------------------------------------------
# Im eta = 0 curve
# ---------------------------------------------------------------------------

class TestGammaCurve:
    def test_attenuator_empty(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        c = gamma_trace(p)
        assert c.points.size == 0 and c.nu_max == 0.0

    def test_delta_circle(self):
        p = BroadeningProfile.delta_approx(1e-3, sign=+1)
        c = gamma_trace(p, lam_window=(-0.6, 0.6), n_scan=121)
        assert c.points.size > 20
        assert np.max(np.abs(np.abs(c.points) - 0.5)) < 1e-2

    def test_delta_radius_converges(self):
        errs = []
        for eps in (1e-2, 1e-3):
            p = BroadeningProfile.delta_approx(eps, sign=+1)
            c = gamma_trace(p, lam_window=(-0.6, 0.6), n_scan=61)
            errs.append(np.max(np.abs(np.abs(c.points) - 0.5)))
        assert errs[1] < errs[0]

    def test_lorentzian_curve_equation(self):
        # level curve of the closed form: lam^2 = (nu+l)/(4 nu) - (nu+l)^2
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        c = gamma_trace(p, lam_window=(-3, 3), n_scan=241)
        lam, nu = c.points.real, c.points.imag
        lhs = lam ** 2
        rhs = (nu + 1.0) / (4 * nu) - (nu + 1.0) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-7
        assert abs(c.nu_max - (np.sqrt(2) - 1) / 2) < 1e-6

    def test_lorentzian_point_at_height(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        c = gamma_trace(p, lam_window=(-2, 2), n_scan=401)
        lam, nu = c.points.real, c.points.imag
        k = np.argmin(np.abs(lam - 1.24097))
        # nu on the curve near lam = sqrt(1.54) is ~0.1
        assert abs(np.interp(np.sqrt(1.54), lam[lam > 0], nu[lam > 0]) - 0.1) < 1e-3

    def test_lorentzian_truncation_flag(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        c = gamma_trace(p, lam_window=(-20, 20), n_scan=201)
        assert c.truncated

    def test_tabulated_curve_evaluations_bounded(self, monkeypatch):
        # 101 scan nodes on a 121-node Gaussian table: the Illinois step
        # evaluates Im eta at 1098 points, where bisecting every bracket
        # to 1e-13 took 8890 (and a per-node brentq 1494)
        grid = np.linspace(-6.0, 6.0, 121)
        p = profile_normalize(BroadeningProfile.tabulated(
            grid, np.exp(-grid ** 2), sign=+1))
        points, eta = [], broadening.eta_eval

        def counted(profile, z):
            points.append(np.size(z))
            return eta(profile, z)

        monkeypatch.setattr(broadening, "eta_eval", counted)
        c = gamma_trace(p, lam_window=(-2.0, 2.0), n_scan=101)
        assert c.points.size == 101 and c.truncated
        assert abs(c.nu_max - 0.31933206107841) < 1e-12
        assert sum(points) <= 1200


# ---------------------------------------------------------------------------
# averaging weights
# ---------------------------------------------------------------------------

class TestAverageWeights:
    def test_constant_exact(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        grid = np.linspace(-10, 10, 201)
        w = average_weights(p, grid)
        c = 0.3 - 1.2j
        assert abs(np.sum(w * c) - (-c)) < 1e-14

    def test_gaussian_vs_adaptive_quad(self):
        p = BroadeningProfile.lorentzian(1.0, sign=+1)
        grid = np.linspace(-25, 25, 2001)
        w = average_weights(p, grid)
        got = np.sum(w * np.exp(-grid ** 2))
        oracle, _ = quad(lambda s: p.n(s) * np.exp(-s * s), -np.inf, np.inf,
                         epsabs=1e-13, epsrel=1e-13)
        assert abs(got - oracle) < 1e-8

    def test_rectangular_weights(self):
        p = BroadeningProfile.rectangular(0.5, sign=-1)
        grid = np.linspace(-0.5, 0.5, 101)
        w = average_weights(p, grid)
        got = np.sum(w * grid ** 2)
        # int -1 * s^2 ds / (2*0.5) over [-1/2, 1/2] = -1/12
        assert abs(got + 1.0 / 12) < 1e-6
