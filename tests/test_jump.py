"""Jump-matrix assembly: mixed, whole-line, and amplifier-oval classes."""

import numpy as np
import pytest
from scipy.special import gamma as cgamma

from mbrh import broadening, lax, spectral
from mbrh.broadening import BroadeningProfile, eta_boundary, eta_eval
from mbrh.cli import rho0_from_config
from mbrh.errors import RegularityViolation
from mbrh.jump import (
    jump_mixed,
    jump_oval,
    jump_wholeline,
    k_solve,
    posdef_check,
    schwartz_error,
    shear_matrices,
    spectral_data,
)
from mbrh.mat2 import diag_exp, inv2
from mbrh.spectral import (
    continued_a,
    ScenarioData,
    jost_phi,
    jost_w,
    phi_column_continuation,
    transition_and_reflection,
    xbank_propagate,
)

ZERO = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
ATT = BroadeningProfile.lorentzian(1.0, sign=-1)


def smooth_scenario():
    E_in = lambda t: 0.8 * np.exp(-((t - 4.0) / 0.8) ** 2) * np.exp(0.3j * t)
    E0 = lambda x: 0.3 * np.exp(-((x - 2.5) / 0.5) ** 2)
    return ScenarioData(T=10.0, L=5.0, E_in=E_in, E0=E0, rho0=None)


def excited_scenario():
    """Desk pulse on L = 2 over an excited medium: an E0 bump and a rho0
    table, so the x-banks run the full Magnus path through the medium."""
    E_in = lambda t: 0.8 * np.exp(-((np.asarray(t) - 3.0) / 0.7) ** 2) + 0j
    E0 = lambda x: 0.3 * np.exp(-((np.asarray(x) - 1.0) / 0.3) ** 2) + 0j
    xg = np.linspace(0.0, 2.0, 41)
    lg = np.linspace(-8.0, 8.0, 65)
    re = 0.3 * np.exp(-((xg[:, None] - 0.7) / 0.25) ** 2 - lg[None, :] ** 2 / 2)
    rho0 = rho0_from_config({"x": xg.tolist(), "lam": lg.tolist(),
                             "re": re.tolist()})
    return ScenarioData(T=10.0, L=2.0, E_in=E_in, E0=E0, rho0=rho0)


@pytest.fixture(scope="module")
def smooth_data():
    sc = smooth_scenario()
    lam = np.linspace(-20, 20, 81)
    Phi0, _, _ = jost_phi(sc, lam)
    _, wp = jost_w(sc, ATT, lam)
    _, wm = jost_w(sc, ATT, lam, bank="-")
    tab = transition_and_reflection(lam, Phi0, wp[0], wm[0])
    return sc, lam, tab, wp[0], wm[0]


class TestKSolve:
    def test_trivial_identity_terminal(self):
        sc = ScenarioData.trivial()
        lam = np.linspace(-4, 4, 17)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (17, 2, 2))
        x_out = np.array([0.0, 1.5, 5.0])
        _, K = k_solve(sc, ATT, lam, eye, bank="+", x_out=x_out)
        ev = eta_boundary(ATT, lam)
        want = diag_exp(1j * x_out[:, None] * ev.eta_plus)
        assert np.max(np.abs(K - want)) < 1e-12

    def test_trivial_generic_terminal(self):
        sc = ScenarioData.trivial()
        lam = np.linspace(-4, 4, 9)
        rng = np.random.default_rng(11)
        S = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
        x_out = np.array([0.0, 2.0])
        _, K = k_solve(sc, ATT, lam, S, bank="-", x_out=x_out)
        ev = eta_boundary(ATT, lam)
        want = diag_exp(1j * x_out[:, None] * ev.eta_minus) @ S
        assert np.max(np.abs(K - want)) < 1e-12

    def test_consistency_with_jost_path(self):
        # K = w S from the Jost banks equals the solve from terminal data
        # e^{i L eta} S, because the x-equation is linear
        lam = np.linspace(-20, 20, 41)
        for sc in (smooth_scenario(), excited_scenario()):
            x_out = np.linspace(0, sc.L, 6)
            tab, Kp, Km = spectral_data(sc, ATT, lam, x_out=x_out)
            sp, sm = shear_matrices(tab.r_plus, tab.r_bar_minus)
            for K, S, bank in ((Kp, sp, "+"), (Km, sm, "-")):
                _, ref = k_solve(sc, ATT, lam, S, bank=bank, x_out=x_out)
                assert np.max(np.abs(K - ref)) < 1e-12 * np.max(np.abs(ref))


class TestKernelReuse:
    """The x-banks and the continued column of an excited medium build the
    medium transform's weight matrix once per propagation and apply it at
    every Magnus Gauss node."""

    @staticmethod
    def _count(monkeypatch, module, name, log):
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            log.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_xbank_builds_pv_weights_once(self, monkeypatch):
        builds, calls = [], []
        self._count(monkeypatch, lax, "pv_weights", builds)
        self._count(monkeypatch, lax, "pv_apply", calls)
        sc = excited_scenario()
        lam = np.linspace(-20, 20, 41)
        x_out = np.linspace(0, sc.L, 3)
        step = 0.05
        terminal = diag_exp(1j * sc.L * eta_boundary(ATT, lam).eta_plus)
        xbank_propagate(sc, ATT, lam, "+", terminal, x_out, step=step)
        steps = spectral._refined_grid(np.union1d(x_out, [0.0, sc.L]), step).size - 1
        assert len(builds) == 1
        assert len(calls) == 2 * steps

    def test_continued_a_builds_cauchy_weights_once(self, monkeypatch):
        builds = []
        self._count(monkeypatch, lax, "cauchy_weights", builds)
        sc = excited_scenario()
        continued_a(sc, ATT, np.array([0.3 + 0.5j, -1.0 + 0.2j, 2.0 + 1.0j]),
                    step=0.05)
        assert len(builds) == 1


class TestJumpMixed:
    def test_trivial_identity(self):
        sc = ScenarioData.trivial()
        lam = np.linspace(-6, 6, 25)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (25, 2, 2)).copy()
        ev = eta_boundary(ATT, lam)
        for (t, x) in ((0.0, 0.0), (3.7, 1.2), (10.0, 5.0)):
            _, Kp = k_solve(sc, ATT, lam, eye, bank="+", x_out=np.array([x]))
            _, Km = k_solve(sc, ATT, lam, eye, bank="-", x_out=np.array([x]))
            jd = jump_mixed(t, x, ev, Kp[0], Km[0])
            assert np.max(np.abs(jd.J - np.eye(2))) < 1e-10

    def test_origin_equals_spectral_product(self, smooth_data):
        sc, lam, tab, wp0, wm0 = smooth_data
        sp, sm = shear_matrices(tab.r_plus, tab.r_bar_minus)
        _, Kp = k_solve(sc, ATT, lam, sp, bank="+", x_out=np.array([0.0]))
        _, Km = k_solve(sc, ATT, lam, sm, bank="-", x_out=np.array([0.0]))
        jd = jump_mixed(0.0, 0.0, eta_boundary(ATT, lam), Kp[0], Km[0])
        want = inv2(sp) @ inv2(wp0) @ wm0 @ sm
        assert np.max(np.abs(jd.J - want)) < 1e-7

    def test_unimodular(self, smooth_data):
        sc, lam, tab, _, _ = smooth_data
        sp, sm = shear_matrices(tab.r_plus, tab.r_bar_minus)
        _, Kp = k_solve(sc, ATT, lam, sp, bank="+", x_out=np.array([2.0]))
        _, Km = k_solve(sc, ATT, lam, sm, bank="-", x_out=np.array([2.0]))
        jd = jump_mixed(1.5, 2.0, eta_boundary(ATT, lam), Kp[0], Km[0])
        assert jd.det_error() < 1e-8

    def test_tail_decay_in_lambda(self, smooth_data):
        sc, lam, tab, _, _ = smooth_data
        sp, sm = shear_matrices(tab.r_plus, tab.r_bar_minus)
        _, Kp = k_solve(sc, ATT, lam, sp, bank="+", x_out=np.array([0.0]))
        _, Km = k_solve(sc, ATT, lam, sm, bank="-", x_out=np.array([0.0]))
        jd = jump_mixed(0.0, 0.0, eta_boundary(ATT, lam), Kp[0], Km[0])
        dist = np.max(np.abs(jd.J - np.eye(2)), axis=(-2, -1))
        at = lambda v: dist[np.argmin(np.abs(lam - v))]
        assert at(20.0) <= 0.1 and at(-20.0) <= 0.1
        assert at(20.0) < at(10.0) and at(-20.0) < at(-10.0)

    def test_posdef_at_random_stamps(self, smooth_data):
        sc, lam, tab, _, _ = smooth_data
        sp, sm = shear_matrices(tab.r_plus, tab.r_bar_minus)
        ev = eta_boundary(ATT, lam)
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = rng.uniform(0, 10)
            x = rng.uniform(0, 5)
            _, Kp = k_solve(sc, ATT, lam, sp, bank="+", x_out=np.array([x]))
            _, Km = k_solve(sc, ATT, lam, sm, bank="-", x_out=np.array([x]))
            jd = jump_mixed(t, x, ev, Kp[0], Km[0])
            assert posdef_check(jd) > 0.0


class TestJumpWholeline:
    def test_zero_reflection(self):
        lam = np.linspace(-5, 5, 21)
        jd = jump_wholeline(1.0, 2.0, lam, np.zeros(21), ATT)
        assert np.max(np.abs(jd.J - np.eye(2))) < 1e-14

    def test_det_identity(self):
        lam = np.linspace(-5, 5, 21)
        r = 0.5 * np.exp(-lam ** 2) * np.exp(1j * lam)
        jd = jump_wholeline(0.7, 3.0, lam, r, ATT)
        assert jd.det_error() < 1e-12

    def test_sit_decay_ratio(self):
        lam = np.array([0.0])
        r = np.array([0.5 + 0.0j])
        j5 = jump_wholeline(0.0, 5.0, lam, r, ATT).J
        j10 = jump_wholeline(0.0, 10.0, lam, r, ATT).J
        ratio = abs(j10[0, 0, 1]) / abs(j5[0, 0, 1])
        # exponent pi n(0) x / 2 with n(0) = -1/pi: e^{-2.5}
        assert abs(ratio - np.exp(-2.5)) < 1e-10

    def test_amplifier_growth(self):
        amp = BroadeningProfile.lorentzian(1.0, sign=+1)
        lam = np.array([0.0])
        r = np.array([0.5 + 0.0j])
        j5 = jump_wholeline(0.0, 5.0, lam, r, amp).J
        j10 = jump_wholeline(0.0, 10.0, lam, r, amp).J
        ratio = abs(j10[0, 0, 1]) / abs(j5[0, 0, 1])
        assert abs(ratio - np.exp(2.5)) < 1e-9

    @pytest.mark.parametrize("lam0", [0.0, 1.0, -1.0])
    def test_decay_slope(self, lam0):
        lam = np.array([lam0])
        r = np.array([0.4 - 0.2j])
        xs = np.linspace(2.0, 10.0, 17)
        dist = [np.max(np.abs(jump_wholeline(0.3, x, lam, r, ATT).J - np.eye(2)))
                for x in xs]
        slope = np.polyfit(xs, np.log(dist), 1)[0]
        want = np.pi * ATT.n(lam0) / 2.0
        assert abs(slope - want) < 0.05 * abs(want)

    def test_posdef_certificate_value(self):
        lam = np.array([0.0])
        jd = jump_wholeline(0.0, 0.0, lam, np.array([0.5 + 0j]), ATT)
        want = 1.125 - np.sqrt(0.5 ** 2 + 0.125 ** 2)
        assert abs(posdef_check(jd) - want) < 1e-12

    def test_posdef_all_stamps(self):
        lam = np.linspace(-5, 5, 41)
        r = 0.8 * np.exp(-lam ** 2 / 2)
        for (t, x) in ((0.0, 0.0), (2.0, 7.0), (9.0, 1.0)):
            jd = jump_wholeline(t, x, lam, r, ATT)
            assert posdef_check(jd) > 0.0


class TestJumpOval:
    def test_unit_modulus_algebra(self):
        z = np.array([0.3 + 0.4j])
        a = np.array([np.exp(0.3j)])
        b = np.array([np.exp(-1.1j)])
        jd = jump_oval(z, a, b, 0.0, 0.0, np.array([0.5j]))
        want = np.array([[0, -b[0] / a[0]], [a[0] / b[0], 1]])
        assert np.max(np.abs(jd.J[0] - want)) < 1e-14
        assert jd.det_error() < 1e-14

    def test_conjugate_node_form(self):
        z = np.array([0.3 - 0.4j])
        a = np.array([1.2 + 0.1j])      # values at the reflected point z*
        b = np.array([0.4 - 0.8j])
        jd = jump_oval(z, a, b, 0.0, 0.0, np.array([-0.5j]))
        want = np.array([[1, -np.conj(a[0]) / np.conj(b[0])],
                         [np.conj(b[0]) / np.conj(a[0]), 0]])
        assert np.max(np.abs(jd.J[0] - want)) < 1e-14

    def test_regularity_guard(self):
        z = np.array([0.5j])
        with pytest.raises(RegularityViolation):
            jump_oval(z, np.array([0.0j]), np.array([1.0 + 0j]), 0, 0,
                      np.array([0.5j]))

    def test_amplifier_toy_schwartz(self):
        # sub-threshold sech pulse, trivial medium: a, b continued to the
        # delta-limit circle |z| = 1/2 (skipping the poles of b at +-i/2)
        amp_prof = BroadeningProfile.delta_approx(1e-3, sign=+1)
        amp = 0.8
        sc = ScenarioData(T=30.0, L=5.0, E_in=lambda t: amp / np.cosh(t - 15.0),
                          E0=ZERO, rho0=None)
        ang = np.array([30, 60, 120, 150]) * np.pi / 180
        z_up = 0.5 * np.exp(1j * ang)
        A, B = phi_column_continuation(sc, z_up)
        # Satsuma-Yajima closed form for amplitude-A sech potentials
        s = 0.5 - 1j * z_up
        a_want = cgamma(s) ** 2 / (cgamma(s + amp / 2) * cgamma(s - amp / 2))
        assert np.max(np.abs(A - a_want)) < 1e-6

        z = np.concatenate([z_up, np.conj(z_up)])
        a = np.concatenate([A, A])
        b = np.concatenate([B, B])
        eta = np.where(z.imag > 0,
                       eta_eval(amp_prof, z),
                       np.conj(eta_eval(amp_prof, np.conj(z))))
        jd = jump_oval(z, a, b, t=1.3, x=0.7, eta_vals=eta)
        assert schwartz_error(jd) < 1e-8
        assert jd.det_error() < 1e-10
