"""Jost solutions, transition matrices, reflection data, zeros of a."""

import os

import numpy as np
import pytest

from mbrh import spectral
from mbrh.broadening import BroadeningProfile, eta_boundary
from mbrh.cli import load_scenario
from mbrh.errors import (CountMismatch, DecayViolation, MediumNotAsymptotic,
                         SpectralOverflow, TooCloseToAxis)
from mbrh.pipeline import spectral_data
from mbrh.mat2 import dagger, det2, diag_exp, inv2
from mbrh.rhsolver import contour_build
from mbrh.spectral import (
    CLEARANCE_MIN,
    STEP_ERR_STRIDE,
    T_STEP,
    X_STEP,
    ScenarioData,
    _blaschke_fit,
    _newton,
    a_zeros,
    axis_zero_count,
    continued_a,
    continued_columns,
    jost_phi,
    jost_w,
    step_error,
    transition_and_reflection,
)
from references import (coupling_matrix, excited_scenario, sigma2_conj,
                        trivial_scenario)

ZERO = lambda s: np.zeros_like(np.asarray(s, dtype=complex))


def sech_scenario(amp=2.0, T=30.0, L=5.0):
    return ScenarioData(T=T, L=L, E_in=lambda t: amp / np.cosh(t - T / 2),
                        E0=ZERO, rho0=None)


def smooth_scenario():
    """Gaussian chirped boundary pulse plus a Gaussian initial field bump."""
    E_in = lambda t: 0.8 * np.exp(-((t - 4.0) / 0.8) ** 2) * np.exp(0.3j * t)
    E0 = lambda x: 0.3 * np.exp(-((x - 2.5) / 0.5) ** 2)
    return ScenarioData(T=10.0, L=5.0, E_in=E_in, E0=E0, rho0=None)


class TestJostPhi:
    def test_trivial_identity(self):
        sc = trivial_scenario()
        lam = np.linspace(-5, 5, 21)
        Phi0 = jost_phi(sc, lam)
        A, B = Phi0[:, 1, 1], Phi0[:, 0, 1]
        assert np.max(np.abs(Phi0 - np.eye(2))) < 1e-12
        assert np.max(np.abs(A - 1)) < 1e-12 and np.max(np.abs(B)) < 1e-12

    def test_sech_reflectionless(self):
        sc = sech_scenario()
        lam = np.linspace(-20, 20, 401)
        Phi0 = jost_phi(sc, lam)
        A, B = Phi0[:, 1, 1], Phi0[:, 0, 1]
        assert np.max(np.abs(B)) <= 1e-5
        # unit-amplitude potential: a(lam) = (lam - i/2)/(lam + i/2)
        assert np.max(np.abs(A - (lam - 0.5j) / (lam + 0.5j))) < 1e-8

    def test_sigma2_reduction(self):
        sc = smooth_scenario()
        lam = np.linspace(-8, 8, 33)
        Phi0 = jost_phi(sc, lam)
        assert np.max(np.abs(Phi0 - sigma2_conj(Phi0))) < 1e-9
        assert np.max(np.abs(Phi0[..., 0, 0] - np.conj(Phi0[..., 1, 1]))) < 1e-9

    def test_unit_determinant(self):
        sc = smooth_scenario()
        lam = np.linspace(-8, 8, 33)
        Phi0 = jost_phi(sc, lam)
        assert np.max(np.abs(det2(Phi0) - 1.0)) < 1e-9

    def test_decay_guard(self):
        sc = ScenarioData(T=5.0, L=5.0, E_in=lambda t: np.exp(-((t - 4.5) / 2) ** 2),
                          E0=ZERO, rho0=None)
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        with pytest.raises(DecayViolation):
            spectral_data(sc, p, eta_boundary(p, np.array([0.0])))

    def test_continuation_matches_axis_limit(self):
        sc = sech_scenario()
        lam = 0.7
        A = jost_phi(sc, np.array([lam]))[:, 1, 1]
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        Az = continued_columns(sc, p, np.array([lam + 1e-6j]),
                               eta_boundary(p, np.array([lam])))[0]
        assert abs(Az[0] - A[0]) < 1e-5


class TestJostW:
    def test_trivial_closed_form(self):
        sc = trivial_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-5, 5, 41)
        x_out = np.linspace(0, sc.L, 6)
        ev = eta_boundary(p, lam)
        wp = jost_w(sc, p, ev, x_out=x_out)
        for w, eta in ((wp, ev.eta_plus), (dagger(inv2(wp)), ev.eta_minus)):
            assert np.max(np.abs(w - diag_exp(1j * x_out[:, None] * eta))) < 1e-12
            assert np.max(np.abs(w[0] - np.eye(2))) < 1e-12

    def test_picard_volterra_oracle(self):
        # hatted Volterra form: w(x) = e^{ix eta s3} - int_x^L e^{i(x-s) eta s3} H w ds
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        sc = ScenarioData(T=10.0, L=5.0, E_in=ZERO,
                          E0=lambda x: 0.3 * np.exp(-((x - 2.5) / 0.5) ** 2),
                          rho0=None)
        lam = np.array([0.3, -1.1, 2.7])
        ev = eta_boundary(p, lam)
        xs = np.linspace(0, sc.L, 8001)
        H = coupling_matrix(np.asarray(sc.E0(xs), complex))      # (nx, 2, 2)
        tw = np.gradient(xs)                                      # trapezoid weights
        tw[0] *= 0.5
        tw[-1] *= 0.5
        for k, eta in enumerate(ev.eta_plus):
            free = diag_exp(1j * xs * eta)                        # (nx, 2, 2)
            free_inv = diag_exp(-1j * xs * eta)
            w = free.copy()
            for _ in range(12):
                P = tw[:, None, None] * (free_inv @ H @ w)
                S = np.cumsum(P[::-1], axis=0)[::-1] - 0.5 * P    # suffix trapezoid
                w = free @ (np.eye(2) - S)
            wode = jost_w(sc, p, eta_boundary(p, lam[k]),
                          x_out=np.array([0.0, 2.5, 5.0]))
            for j, idx in ((0, 0), (1, 4000), (2, 8000)):
                assert np.max(np.abs(wode[j, 0] - w[idx])) < 1e-7

    def test_sigma2_reduction_between_banks(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        sc = smooth_scenario()
        lam = np.linspace(-6, 6, 25)
        x_out = np.array([0.0, 2.0, 5.0])
        ev = eta_boundary(p, lam)
        wp = jost_w(sc, p, ev, x_out=x_out)
        assert np.max(np.abs(dagger(inv2(wp)) - sigma2_conj(wp))) < 1e-8
        assert np.max(np.abs(det2(wp) - 1.0)) < 1e-9

    @pytest.mark.parametrize("excited", [False, True])
    def test_continuation_matches_xbank(self, excited):
        # (alpha, beta)(lam + i eps) tends to the first column of w+(0): the
        # continued column and the x-bank share one x-generator
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        E0 = lambda x: 0.3 * np.exp(-((np.asarray(x) - 1.0) / 0.3) ** 2) + 0j
        rho0 = (lambda x, lam: 0.3 * np.exp(
            -((x - 0.7) / 0.25) ** 2 - np.asarray(lam) ** 2 / 2) + 0j) \
            if excited else None
        lam = np.linspace(-12, 12, 161)
        pick = np.array([70, 83, 95])
        sc = ScenarioData(T=10.0, L=2.0, E_in=ZERO, E0=E0, rho0=rho0)
        ev = eta_boundary(p, lam)
        w = jost_w(sc, p, ev, x_out=np.array([0.0]))
        _, _, alpha, beta = continued_columns(sc, p, lam[pick] + 1e-8j, ev)
        # measured: at most 3.4e-11 in alpha and 1.5e-9 in beta
        # (|beta| >= 0.04), both falling linearly with eps
        assert np.max(np.abs(alpha - w[0, pick, 0, 0])) < 1e-9
        assert np.max(np.abs(beta - w[0, pick, 1, 0])) < 1e-8
        assert np.min(np.abs(beta)) > 1e-3

    @pytest.mark.parametrize("window", [(-20.0, 20.0), (-10.0, 10.0)])
    def test_continued_a_meets_a_plus_on_the_run_nodes(self, window):
        # a(lam + i eps) tends to the axis a+ of the run's spectral data:
        # the continued x-sweep transforms the excited medium on the run's
        # own nodes, as the axis banks do.  Measured: at most 2.7e-8 (on a
        # medium grid of its own, 401 nodes on [-20, 20]: 1.5e-5)
        path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                            "scenarios", "excited_rh.json")
        sc, p, _ = load_scenario(path)
        c = contour_build(window=window)
        ev = eta_boundary(p, c.nodes)
        table, _ = spectral_data(sc, p, ev)
        pick = np.linspace(c.n_nodes // 4, 3 * c.n_nodes // 4, 12).astype(int)
        a = continued_a(sc, p, c.nodes[pick] + 1e-7j, ev)
        assert np.max(np.abs(a - table.a_plus[pick])) < 1e-6

    def test_medium_guard(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        sc = ScenarioData(T=10.0, L=5.0, E_in=ZERO, E0=ZERO,
                          rho0=lambda x, lam: 0.5 * np.ones(np.shape(lam)))
        with pytest.raises(MediumNotAsymptotic):
            spectral_data(sc, p, eta_boundary(p, np.array([0.0])))


class TestTransition:
    def test_trivial(self):
        sc = trivial_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-5, 5, 21)
        Phi0 = jost_phi(sc, lam)
        ev = eta_boundary(p, lam)
        wp = jost_w(sc, p, ev)
        tab = transition_and_reflection(lam, Phi0, wp[0])
        assert np.max(np.abs(tab.a_plus - 1)) < 1e-12
        assert np.max(np.abs(tab.r_plus)) < 1e-12

    def test_sech_reflectionless_r(self):
        sc = sech_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-20, 20, 201)
        Phi0 = jost_phi(sc, lam)
        ev = eta_boundary(p, lam)
        wp = jost_w(sc, p, ev)
        tab = transition_and_reflection(lam, Phi0, wp[0])
        assert np.max(np.abs(tab.r_plus)) <= 1e-5

    def test_determinants_and_reductions(self):
        sc = smooth_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-10, 10, 81)
        Phi0 = jost_phi(sc, lam)
        ev = eta_boundary(p, lam)
        wp = jost_w(sc, p, ev)
        tab = transition_and_reflection(lam, Phi0, wp[0])
        assert tab.diagnostics["det_Tp_err"] < 1e-8
        # Phi(0) in SU(2), which carries a_bar_plus = conj(a_minus) and
        # b_bar_plus = conj(b_minus)
        assert tab.diagnostics["reduction_err"] < 1e-8

    def test_tail_asymptotics(self):
        sc = smooth_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.array([-20.0, 20.0, -10.0, 10.0])
        Phi0 = jost_phi(sc, lam)
        ev = eta_boundary(p, lam)
        wp = jost_w(sc, p, ev)
        tab = transition_and_reflection(lam, Phi0, wp[0])
        assert np.max(np.abs(tab.a_plus - 1)) < 0.2
        assert np.max(np.abs(tab.b_plus)) < 0.2

    def test_non_finite_refused(self):
        # an overflowed Phi(0) gave a NaN table: max |r| = nan, det error
        # nan, and |a| < SINGULAR_FLOOR is false on a NaN
        sc = trivial_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-5, 5, 21)
        Phi0 = jost_phi(sc, lam)
        wp = jost_w(sc, p, eta_boundary(p, lam))
        Phi0[[4, 9], 0, 1] = [np.inf, np.nan]
        with pytest.raises(SpectralOverflow,
                           match=r"not finite at lam=-3\.0000 \(2 of 21 nodes\)"), \
                np.errstate(invalid="ignore"):
            transition_and_reflection(lam, Phi0, wp[0])


class TestLocateAZeros:
    """`a_zeros` on the default contour: the axis count, the Blaschke fit
    and Newton from its roots."""

    def setup_method(self):
        self.p = BroadeningProfile.lorentzian(1.0, sign=-1)

    def find(self, sc, **contour):
        c = contour_build(**contour)
        ev = eta_boundary(self.p, c.nodes)
        table, _ = spectral_data(sc, self.p, ev)
        return a_zeros(sc, self.p, ev, c, table.a_plus)

    def test_trivial_empty(self):
        poles, report = self.find(trivial_scenario())
        assert poles == []
        assert report["fit_residual"] < 1e-12
        assert (report["axis"], report["newton_steps"], report["clearance"]) \
            == (0, 0, None)

    def test_sech_eigenvalue(self):
        poles, report = self.find(sech_scenario())
        assert len(poles) == 1
        zj, mj = poles[0]
        assert abs(zj - 0.5j) < 1e-7
        # a(z) = (z - i/2)/(z + i/2) gives adot(i/2) = 1/(i) = -i;
        # the residue constant stays finite and nonzero
        assert np.isfinite(mj) and abs(mj) > 0
        # 0.5 over the node spacing 40 / 24 / 16 of the default panels
        assert report["axis"] == 1 and report["fit_residual"] < 1e-6
        assert 1 <= report["newton_steps"] <= 3
        assert abs(report["clearance"] - 4.8) < 1e-6

    def test_two_zeros_of_4_sech(self):
        poles, report = self.find(sech_scenario(amp=4.0))
        z = np.sort_complex(np.array([zj for zj, _ in poles]))
        assert report["axis"] == 2
        assert np.max(np.abs(z - np.array([0.5j, 1.5j]))) < 1e-7

    def test_near_axis_zero_is_refused_until_the_panels_resolve_it(self):
        # 1.95 exp(-(t - 16)^2) has its zero at 0.1043473i, one node spacing
        # of the default panels above the axis: the field there was 2.5
        # off E_in.  24 nodes on each of 48 panels put it 3 spacings up
        sc = ScenarioData(T=32.0, L=1.0, E_in=lambda t: 1.95 * np.exp(
            -(np.asarray(t) - 16.0) ** 2) + 0j, E0=ZERO, rho0=None)
        with pytest.raises(TooCloseToAxis, match="1.00 node spacings"):
            self.find(sc)
        poles, report = self.find(sc, n_panels=48, nodes_per_panel=24)
        assert len(poles) == 1 and abs(poles[0][0] - 0.10434732j) < 1e-7
        assert report["clearance"] > CLEARANCE_MIN

    def test_two_roots_on_one_zero_are_refused(self, monkeypatch):
        # two fitted starts either side of i/2 of 4 sech both converge there
        monkeypatch.setattr(spectral, "_blaschke_fit",
                            lambda c, a, p: (np.array([0.45j, 0.55j]), 0.0))
        with pytest.raises(CountMismatch, match="one zero"):
            self.find(sech_scenario(amp=4.0))

    def test_continued_a_matches_closed_form(self):
        sc = sech_scenario()
        zs = np.array([0.3 + 0.4j, -0.5 + 0.9j, 1j])
        ev = eta_boundary(self.p, contour_build().nodes)
        got = continued_a(sc, self.p, zs, ev, step=0.01)
        want = (zs - 0.5j) / (zs + 0.5j)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_newton_refuses_zero_free_function(self):
        # each step moves exp(iz) up by i
        with pytest.raises(CountMismatch, match="did not converge"):
            _newton(lambda z: np.exp(1j * z), np.array([0.5j]))

    def test_newton_refuses_iterate_below_the_axis(self):
        # a root in the lower half-plane, as a near-axis zero can send
        # the iteration there
        with pytest.raises(CountMismatch, match="left the upper half-plane"):
            _newton(lambda z: z + 6.4584j, np.array([0.5j]))
        # a fit of more zeros than a has puts a root on the axis (see
        # TestBlaschkeFit): refused before a is continued there
        with pytest.raises(CountMismatch, match="left the upper half-plane"):
            _newton(None, np.array([0.5j, 2.47 - 1e-13j]))

    def test_newton_refuses_a_diverging_start_without_a_warning(self):
        # a flat function has a zero difference quotient: the step is not
        # finite, which is refused, not warned about
        with pytest.raises(CountMismatch, match="left the upper half-plane"):
            _newton(np.ones_like, np.array([0.5j, 1.0 + 1.0j]))


class TestBlaschkeFit:
    lam_zeros = np.array([0.5j, -1.0 + 1.0j])

    def axis_a(self, c, g=lambda z: 0.0 * z):
        lam = c.nodes
        return np.exp(g(lam)) * np.prod(
            [(lam - z) / (lam - np.conj(z)) for z in self.lam_zeros], axis=0)

    def test_roots_of_a_blaschke_product(self):
        c = contour_build()
        roots, residual = _blaschke_fit(c, self.axis_a(c), 2)
        assert np.max(np.abs(np.sort_complex(roots)
                             - np.sort_complex(self.lam_zeros))) < 1e-10
        assert residual < 1e-12

    def test_outer_factor_is_divided_out(self):
        # a = B e^g with g analytic in C+ and decaying: |a| != 1 on the axis
        c = contour_build()
        a = self.axis_a(c, lambda z: 0.3 / (z + 2j) ** 4)
        roots, residual = _blaschke_fit(c, a, 2)
        assert np.max(np.abs(np.sort_complex(roots)
                             - np.sort_complex(self.lam_zeros))) < 1e-4
        assert residual < 1e-5

    @pytest.mark.parametrize("p", [0, 1])
    def test_missed_zero_leaves_a_large_residual(self, p):
        c = contour_build()
        assert _blaschke_fit(c, self.axis_a(c), p)[1] > 0.1

    def test_extra_zero_lands_on_the_axis(self):
        # one degree too many fits as well, with a real root: the count
        # decides p, and Newton refuses a start off the upper half-plane
        c = contour_build()
        roots, residual = _blaschke_fit(c, self.axis_a(c), 3)
        assert residual < 1e-12
        assert np.min(np.abs(roots.imag)) < 1e-10


class TestConvergenceOrder:
    def test_step_refinement_high_order(self):
        sc = smooth_scenario()
        lam = np.linspace(-3, 3, 7)
        A_ref = jost_phi(sc, lam, step=0.002)[:, 1, 1]
        errs = []
        for h in (0.08, 0.04):
            A = jost_phi(sc, lam, step=h)[:, 1, 1]
            errs.append(np.max(np.abs(A - A_ref)))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.0


class TestAxisZeroCount:
    lam = np.linspace(-20.0, 20.0, 801)

    @staticmethod
    def blaschke(lam, zeros):
        return np.prod([(lam - z) / (lam - np.conj(z)) for z in zeros], axis=0)

    @pytest.mark.parametrize("zeros", [[], [0.5j], [0.05j, -3.0 + 1.0j],
                                       [30.0j], [4.0 + 25.0j, 10.0j]])
    def test_blaschke_products(self, zeros):
        # zeros far above the window leave a(+-20) far from 1: the count
        # holds only with the closing arcs from a(+-20) to 1
        a = self.blaschke(self.lam, zeros) if zeros else np.ones(self.lam.size)
        assert axis_zero_count(self.lam, a) == len(zeros)

    def test_zero_free_phase_off_one(self):
        # a zero-free a whose phase at the window ends is far from 0
        a = np.exp(2.5j * np.tanh(self.lam / 3.0))
        assert axis_zero_count(self.lam, a) == 0


class TestStepError:
    def test_estimate_tracks_the_error(self):
        # the step-doubling estimate against the error at the step itself
        # (from a solve at a quarter of the step), on the estimate's nodes
        sc, p = excited_scenario(), BroadeningProfile.lorentzian(1.0, sign=-1)
        ev = eta_boundary(p, np.linspace(-20.0, 20.0, 97))
        Phi0 = jost_phi(sc, ev.lam)
        wp = jost_w(sc, p, ev)
        w0 = np.concatenate([wp[0], dagger(inv2(wp[0]))])
        est = step_error(sc, p, ev, Phi0, wp[0], T_STEP, X_STEP)
        sub = np.append(np.arange(0, 96, STEP_ERR_STRIDE), 96)
        fine = jost_phi(sc, ev.lam, step=T_STEP / 4)
        fp = jost_w(sc, p, ev, step=X_STEP / 4)
        t_err = np.max(np.abs(Phi0 - fine)[sub])
        x_err = np.max(np.abs(w0 - np.concatenate([fp[0], dagger(inv2(fp[0]))]))[
            np.append(sub, 97 + sub)])
        assert 0.5 < est["t"] / t_err < 2.0
        assert 0.5 < est["x"] / x_err < 2.0
