"""Jost solutions, transition matrices, reflection data, zeros of a."""

import numpy as np
import pytest

from mbrh.broadening import BroadeningProfile, eta_boundary
from mbrh.errors import CountMismatch, DecayViolation, MediumNotAsymptotic
from mbrh.lax import coupling_matrix
from mbrh.mat2 import det2, diag_exp, sigma2_conj
from mbrh.spectral import (
    ScenarioData,
    _newton_refine,
    continued_a,
    jost_phi,
    jost_w,
    locate_a_zeros,
    phi_column_continuation,
    transition_and_reflection,
    wplus_column_continuation,
)

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
        sc = ScenarioData.trivial()
        lam = np.linspace(-5, 5, 21)
        Phi0, A, B = jost_phi(sc, lam)
        assert np.max(np.abs(Phi0 - np.eye(2))) < 1e-12
        assert np.max(np.abs(A - 1)) < 1e-12 and np.max(np.abs(B)) < 1e-12

    def test_sech_reflectionless(self):
        sc = sech_scenario()
        lam = np.linspace(-20, 20, 401)
        _, A, B = jost_phi(sc, lam)
        assert np.max(np.abs(B)) <= 1e-5
        # unit-amplitude potential: a(lam) = (lam - i/2)/(lam + i/2)
        assert np.max(np.abs(A - (lam - 0.5j) / (lam + 0.5j))) < 1e-8

    def test_sigma2_reduction(self):
        sc = smooth_scenario()
        lam = np.linspace(-8, 8, 33)
        Phi0, A, B = jost_phi(sc, lam)
        assert np.max(np.abs(Phi0 - sigma2_conj(Phi0))) < 1e-9
        assert np.max(np.abs(Phi0[..., 0, 0] - np.conj(A))) < 1e-9

    def test_unit_determinant(self):
        sc = smooth_scenario()
        lam = np.linspace(-8, 8, 33)
        Phi0, _, _ = jost_phi(sc, lam)
        assert np.max(np.abs(det2(Phi0) - 1.0)) < 1e-9

    def test_decay_guard(self):
        sc = ScenarioData(T=5.0, L=5.0, E_in=lambda t: np.exp(-((t - 4.5) / 2) ** 2),
                          E0=ZERO, rho0=None)
        with pytest.raises(DecayViolation):
            jost_phi(sc, np.array([0.0]))

    def test_continuation_matches_axis_limit(self):
        sc = sech_scenario()
        lam = 0.7
        _, A, B = jost_phi(sc, np.array([lam]))
        Az, _ = phi_column_continuation(sc, np.array([lam + 1e-6j]))
        assert abs(Az[0] - A[0]) < 1e-5


class TestJostW:
    def test_trivial_closed_form(self):
        sc = ScenarioData.trivial()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-5, 5, 41)
        x_out = np.linspace(0, sc.L, 6)
        _, w = jost_w(sc, p, lam, bank="+", x_out=x_out)
        ev = eta_boundary(p, lam)
        want = diag_exp(1j * x_out[:, None] * ev.eta_plus)
        assert np.max(np.abs(w - want)) < 1e-12
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
            _, wode = jost_w(sc, p, lam[k:k + 1], bank="+",
                             x_out=np.array([0.0, 2.5, 5.0]))
            for j, idx in ((0, 0), (1, 4000), (2, 8000)):
                assert np.max(np.abs(wode[j, 0] - w[idx])) < 1e-7

    def test_sigma2_reduction_between_banks(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        sc = smooth_scenario()
        lam = np.linspace(-6, 6, 25)
        x_out = np.array([0.0, 2.0, 5.0])
        _, wp = jost_w(sc, p, lam, bank="+", x_out=x_out)
        _, wm = jost_w(sc, p, lam, bank="-", x_out=x_out)
        assert np.max(np.abs(wm - sigma2_conj(wp))) < 1e-8
        assert np.max(np.abs(det2(wp) - 1.0)) < 1e-9

    @pytest.mark.parametrize("excited", [False, True])
    def test_continuation_matches_xbank(self, excited):
        # (alpha, beta)(lam + i eps) tends to the first column of w+(0): the
        # continued column and the x-bank share one x-generator
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        E0 = lambda x: 0.3 * np.exp(-((np.asarray(x) - 1.0) / 0.3) ** 2) + 0j
        if excited:
            rho0 = lambda x, lam: 0.3 * np.exp(
                -((x - 0.7) / 0.25) ** 2 - np.asarray(lam) ** 2 / 2) + 0j
            # the x-bank transforms the medium on its own lam grid: use the
            # continuation's medium grid
            lam = np.linspace(-20, 20, 401)
            pick = np.array([190, 203, 215])
        else:
            rho0 = None
            lam = np.array([-1.1, 0.3, 2.7])
            pick = np.arange(3)
        sc = ScenarioData(T=10.0, L=2.0, E_in=ZERO, E0=E0, rho0=rho0)
        _, w = jost_w(sc, p, lam, bank="+", x_out=np.array([0.0]))
        alpha, beta = wplus_column_continuation(sc, p, lam[pick] + 1e-8j)
        # measured: at most 3.4e-11 in alpha and 1.5e-9 in beta
        # (|beta| >= 0.04), both falling linearly with eps
        assert np.max(np.abs(alpha - w[0, pick, 0, 0])) < 1e-9
        assert np.max(np.abs(beta - w[0, pick, 1, 0])) < 1e-8
        assert np.min(np.abs(beta)) > 1e-3

    def test_medium_guard(self):
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        sc = ScenarioData(T=10.0, L=5.0, E_in=ZERO, E0=ZERO,
                          rho0=lambda x, lam: 0.5 * np.ones(np.shape(lam)))
        with pytest.raises(MediumNotAsymptotic):
            jost_w(sc, p, np.array([0.0]))


class TestTransition:
    def test_trivial(self):
        sc = ScenarioData.trivial()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-5, 5, 21)
        Phi0, _, _ = jost_phi(sc, lam)
        _, wp = jost_w(sc, p, lam, bank="+")
        _, wm = jost_w(sc, p, lam, bank="-")
        tab = transition_and_reflection(lam, Phi0, wp[0], wm[0])
        assert np.max(np.abs(tab.a_plus - 1)) < 1e-12
        assert np.max(np.abs(tab.r_plus)) < 1e-12

    def test_sech_reflectionless_r(self):
        sc = sech_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-20, 20, 201)
        Phi0, _, _ = jost_phi(sc, lam)
        _, wp = jost_w(sc, p, lam, bank="+")
        _, wm = jost_w(sc, p, lam, bank="-")
        tab = transition_and_reflection(lam, Phi0, wp[0], wm[0])
        assert np.max(np.abs(tab.r_plus)) <= 1e-5

    def test_determinants_and_reductions(self):
        sc = smooth_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.linspace(-10, 10, 81)
        Phi0, _, _ = jost_phi(sc, lam)
        _, wp = jost_w(sc, p, lam, bank="+")
        _, wm = jost_w(sc, p, lam, bank="-")
        tab = transition_and_reflection(lam, Phi0, wp[0], wm[0])
        assert tab.diagnostics["det_Tp_err"] < 1e-8
        assert tab.diagnostics["det_Tm_err"] < 1e-8
        # a_bar_plus = conj(a_minus), b_bar_plus = conj(b_minus)
        assert np.max(np.abs(tab.a_bar_plus - np.conj(tab.a_minus))) < 1e-8
        assert np.max(np.abs(tab.b_bar_plus - np.conj(tab.b_minus))) < 1e-8

    def test_tail_asymptotics(self):
        sc = smooth_scenario()
        p = BroadeningProfile.lorentzian(1.0, sign=-1)
        lam = np.array([-20.0, 20.0, -10.0, 10.0])
        Phi0, _, _ = jost_phi(sc, lam)
        _, wp = jost_w(sc, p, lam, bank="+")
        _, wm = jost_w(sc, p, lam, bank="-")
        tab = transition_and_reflection(lam, Phi0, wp[0], wm[0])
        assert np.max(np.abs(tab.a_plus - 1)) < 0.2
        assert np.max(np.abs(tab.b_plus)) < 0.2


class TestLocateAZeros:
    def setup_method(self):
        self.p = BroadeningProfile.lorentzian(1.0, sign=-1)

    def test_trivial_empty(self):
        sc = ScenarioData.trivial()
        poles = locate_a_zeros(sc, self.p, window=(-2, 2, 0.05, 2), step=0.05)
        assert poles == []

    def test_sech_eigenvalue(self):
        sc = sech_scenario()
        poles = locate_a_zeros(sc, self.p, window=(-1, 1, 0.05, 1.2), step=0.02)
        assert len(poles) == 1
        zj, mj = poles[0]
        assert abs(zj - 0.5j) < 1e-4
        # a(z) = (z - i/2)/(z + i/2) gives adot(i/2) = 1/(i) = -i;
        # the residue constant stays finite and nonzero
        assert np.isfinite(mj) and abs(mj) > 0

    def test_window_excluding_zero(self):
        sc = sech_scenario()
        poles = locate_a_zeros(sc, self.p, window=(-1, 1, 0.7, 1.5), step=0.05)
        assert poles == []

    def test_continued_a_matches_closed_form(self):
        sc = sech_scenario()
        zs = np.array([0.3 + 0.4j, -0.5 + 0.9j, 1j])
        got = continued_a(sc, self.p, zs, step=0.01)
        want = (zs - 0.5j) / (zs + 0.5j)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_newton_refuses_zero_free_function(self):
        with pytest.raises(CountMismatch, match="did not converge"):
            _newton_refine(lambda z: np.exp(1j * z), (-1.0, 1.0, 0.05, 1.0),
                           1e-10)

    def test_newton_refuses_root_outside_subwindow(self):
        # a root in the lower half-plane, as a near-axis zero can send
        # the iteration there
        with pytest.raises(CountMismatch, match="outside its subwindow"):
            _newton_refine(lambda z: z + 6.4584j, (-1.0, 1.0, 1e-3, 1.0),
                           1e-10)


class TestConvergenceOrder:
    def test_step_refinement_high_order(self):
        sc = smooth_scenario()
        lam = np.linspace(-3, 3, 7)
        _, A_ref, _ = jost_phi(sc, lam, step=0.002)
        errs = []
        for h in (0.08, 0.04):
            _, A, _ = jost_phi(sc, lam, step=h)
            errs.append(np.max(np.abs(A - A_ref)))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.0
