"""Jump-matrix assembly: mixed, whole-line, and amplifier-oval classes."""

import json

import numpy as np
import pytest
from scipy.special import gamma as cgamma

from mbrh import broadening, lax, pipeline, spectral
from mbrh.broadening import BroadeningProfile, eta_boundary, eta_eval
from mbrh.cli import run_command
from mbrh.errors import SingularK
from mbrh.jump import DET_TOL, det_err, jump_base, jump_phased, shear_matrices
from mbrh.mat2 import dagger, det2, diag_exp, inv2
from mbrh.pipeline import rh_field_grid, spectral_data
from mbrh.spectral import (
    continued_a,
    continued_columns,
    ScenarioData,
    jost_phi,
    jost_w,
    transition_and_reflection,
)
from mbrh.rhsolver import contour_build, posdef_check
from references import (RegularityViolation, desk_scenario, excited_scenario,
                        jump_mixed_reference, jump_oval, jump_wholeline,
                        k_solve, mixed_jump, schwartz_error, trivial_scenario)

ZERO = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
ATT = BroadeningProfile.lorentzian(1.0, sign=-1)


def smooth_scenario():
    E_in = lambda t: 0.8 * np.exp(-((t - 4.0) / 0.8) ** 2) * np.exp(0.3j * t)
    E0 = lambda x: 0.3 * np.exp(-((x - 2.5) / 0.5) ** 2)
    return ScenarioData(T=10.0, L=5.0, E_in=E_in, E0=E0, rho0=None)


@pytest.fixture(scope="module")
def smooth_data():
    sc = smooth_scenario()
    lam = np.linspace(-20, 20, 81)
    Phi0 = jost_phi(sc, lam)
    ev = eta_boundary(ATT, lam)
    wp = jost_w(sc, ATT, ev)
    tab = transition_and_reflection(lam, Phi0, wp[0])
    return sc, lam, tab, wp[0]


class TestKSolve:
    def test_trivial_identity_terminal(self):
        sc = trivial_scenario()
        lam = np.linspace(-4, 4, 17)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (17, 2, 2))
        x_out = np.array([0.0, 1.5, 5.0])
        _, Kp = k_solve(sc, ATT, lam, eye, x_out=x_out)
        ev = eta_boundary(ATT, lam)
        assert np.max(np.abs(Kp - diag_exp(1j * x_out[:, None] * ev.eta_plus))) < 1e-12

    def test_trivial_generic_terminal(self):
        sc = trivial_scenario()
        lam = np.linspace(-4, 4, 9)
        rng = np.random.default_rng(11)
        S = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
        x_out = np.array([0.0, 2.0])
        _, Kp = k_solve(sc, ATT, lam, S, x_out=x_out)
        ev = eta_boundary(ATT, lam)
        want = diag_exp(1j * x_out[:, None] * ev.eta_plus) @ S
        assert np.max(np.abs(Kp - want)) < 1e-12

    def test_consistency_with_jost_path(self):
        # K = w S from the Jost banks equals the solve from terminal data
        # e^{i L eta} S, because the x-equation is linear
        lam = np.linspace(-20, 20, 41)
        for sc in (smooth_scenario(), excited_scenario()):
            x_out = np.linspace(0, sc.L, 6)
            tab, Kp = spectral_data(sc, ATT, eta_boundary(ATT, lam),
                                    x_out=x_out)
            _, ref = k_solve(sc, ATT, lam, shear_matrices(tab.r_plus),
                             x_out=x_out)
            assert np.max(np.abs(Kp - ref)) < 1e-12 * np.max(np.abs(ref))


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
        # 481 nodes: the sweep is 481 wide, so its blocks are capped
        lam = np.linspace(-20, 20, 481)
        x_out = np.linspace(0, sc.L, 3)
        step = 0.03
        ev = eta_boundary(ATT, lam)
        jost_w(sc, ATT, ev, x_out=x_out, step=step)
        steps = spectral._x_grid(sc, x_out, step).size - 1
        cap = spectral.MAGNUS_BLOCK * spectral.MAGNUS_WIDTH // lam.size
        assert cap < spectral.MAGNUS_BLOCK and steps % cap != 0
        assert len(builds) == 1
        # one p.v. product per channel, (N - 1) n and rho n, per capped
        # block of steps, for all Gauss nodes
        assert len(calls) == 2 * -(-steps // cap)

    def test_continued_a_builds_cauchy_weights_once(self, monkeypatch):
        builds = []
        self._count(monkeypatch, lax, "cauchy_weights", builds)
        sc = excited_scenario()
        continued_a(sc, ATT, np.array([0.3 + 0.5j, -1.0 + 0.2j, 2.0 + 1.0j]),
                    eta_boundary(ATT, np.linspace(-20.0, 20.0, 401)), step=0.05)
        assert len(builds) == 1


class TestJumpMixed:
    def test_trivial_identity(self):
        sc = trivial_scenario()
        lam = np.linspace(-6, 6, 25)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (25, 2, 2)).copy()
        ev = eta_boundary(ATT, lam)
        for (t, x) in ((0.0, 0.0), (3.7, 1.2), (10.0, 5.0)):
            _, Kp = k_solve(sc, ATT, lam, eye, x_out=np.array([x]))
            J = mixed_jump(t, x, ev, Kp[0])
            assert np.max(np.abs(J - np.eye(2))) < 1e-10

    def test_origin_equals_spectral_product(self, smooth_data):
        sc, lam, tab, wp0 = smooth_data
        sp = shear_matrices(tab.r_plus)
        _, Kp = k_solve(sc, ATT, lam, sp, x_out=np.array([0.0]))
        J = mixed_jump(0.0, 0.0, eta_boundary(ATT, lam), Kp[0])
        # w- = (w+^{-1})^dagger and S- = (S+^{-1})^dagger
        want = inv2(sp) @ inv2(wp0) @ dagger(inv2(wp0)) @ dagger(inv2(sp))
        assert np.max(np.abs(J - want)) < 1e-7

    def test_unimodular(self, smooth_data):
        sc, lam, tab, _ = smooth_data
        _, Kp = k_solve(sc, ATT, lam, shear_matrices(tab.r_plus),
                        x_out=np.array([2.0]))
        J = mixed_jump(1.5, 2.0, eta_boundary(ATT, lam), Kp[0])
        assert det_err(J) < 1e-8

    def test_tail_decay_in_lambda(self, smooth_data):
        sc, lam, tab, _ = smooth_data
        _, Kp = k_solve(sc, ATT, lam, shear_matrices(tab.r_plus),
                        x_out=np.array([0.0]))
        J = mixed_jump(0.0, 0.0, eta_boundary(ATT, lam), Kp[0])
        dist = np.max(np.abs(J - np.eye(2)), axis=(-2, -1))
        at = lambda v: dist[np.argmin(np.abs(lam - v))]
        assert at(20.0) <= 0.1 and at(-20.0) <= 0.1
        assert at(20.0) < at(10.0) and at(-20.0) < at(-10.0)

    def test_posdef_at_random_stamps(self, smooth_data):
        sc, lam, tab, _ = smooth_data
        sp = shear_matrices(tab.r_plus)
        ev = eta_boundary(ATT, lam)
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = rng.uniform(0, 10)
            x = rng.uniform(0, 5)
            _, Kp = k_solve(sc, ATT, lam, sp, x_out=np.array([x]))
            J = mixed_jump(t, x, ev, Kp[0])
            assert posdef_check(J) > 0.0
            # the axis jump is Hermitian
            assert np.max(np.abs(J - dagger(J))) <= 1e-13 * np.max(np.abs(J))


class TestJumpComponentForm:
    """`jump_base` and `jump_phased` entry by entry against the
    stacked-matmul reference,
    on the K banks of a run's real contour nodes."""

    @pytest.fixture(scope="class", params=["desk", "excited"])
    def banks(self, request):
        sc = desk_scenario() if request.param == "desk" else excited_scenario()
        ev = eta_boundary(ATT, contour_build().nodes)
        xs = np.linspace(0.0, sc.L, 5)
        _, Kp = spectral_data(sc, ATT, ev, x_out=xs)
        return sc, ev, xs, Kp

    def test_matches_stacked_reference(self, banks):
        sc, ev, xs, Kp = banks
        for t in np.linspace(0.0, sc.T, 6):
            for i, x in enumerate(xs):
                if t == 0.0 and x == 0.0:
                    continue
                J0, _ = jump_base(Kp[i])
                J = jump_phased(J0, t, x, ev)
                ref, ref_err = jump_mixed_reference(t, x, ev, Kp[i])
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(J - ref)) <= 1e-14 * scale
                assert J.shape == ref.shape and J.flags.c_contiguous
                assert abs(det_err(J0) - ref_err) <= 1e-15

    def test_singular_k_refusal_unchanged(self, banks):
        _, ev, _, Kp = banks
        with pytest.raises(SingularK) as new:
            mixed_jump(2.0, 1.0, ev, 1.001 * Kp[1])
        with pytest.raises(SingularK) as ref:
            jump_mixed_reference(2.0, 1.0, ev, 1.001 * Kp[1])
        assert str(new.value) == str(ref.value)

    def test_nan_k_refused(self, banks):
        # `err > DET_TOL` is false on a NaN, which let a NaN K through
        _, ev, _, Kp = banks
        bad = Kp[1].copy()
        bad[3, 0, 0] = np.nan
        with pytest.raises(SingularK, match="det K\\+ deviates from 1 by nan"):
            mixed_jump(2.0, 1.0, ev, bad)


class TestDetErr:
    """`det_err` is max |det2(J) - 1| to the bit, on 2x2 matrices and on
    their row-major entries, and `mb-rh jump` reports it of its J."""

    def test_both_layouts_give_the_det2_bits(self):
        rng = np.random.default_rng(3)
        J = rng.normal(size=(3, 50, 2, 2)) + 1j * rng.normal(size=(3, 50, 2, 2))
        want = float(np.max(np.abs(det2(J) - 1.0)))
        J4 = J.reshape(3, 50, 4)
        assert det_err(J) == want
        assert det_err(J4) == want
        # a strided slice of the entries, as the stamps' half axis takes
        assert det_err(J4[:, 25:]) == float(np.max(np.abs(
            J4[:, 25:, 0] * J4[:, 25:, 3] - J4[:, 25:, 1] * J4[:, 25:, 2]
            - 1.0)))

    @pytest.mark.parametrize("rho0", [None, {
        "x": [0.0, 1.0, 2.0], "lam": [-8.0, 0.0, 8.0],
        "re": [[0.0, 0.3, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.0]]}],
        ids=["desk", "excited"])
    def test_mb_rh_jump_reports_det_err_of_its_J(self, tmp_path, rho0):
        cfg = {"T": 10.0, "L": 2.0, "rho0": rho0,
               "E_in": {"pulse": "gaussian", "amplitude": 0.8,
                        "center": 3.0, "width": 0.7},
               "E0": {"pulse": "zero"},
               "profile": {"shape": "lorentzian", "l": 1.0, "sign": -1}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "jump"
        assert run_command(["jump", "--scenario", str(path), "--t", "2.5",
                            "--x", "1.0", "--out", str(out)]) == 0
        cols = np.loadtxt(out / "jump.csv", delimiter=",", skiprows=1)
        J = (cols[:, 1::2] + 1j * cols[:, 2::2]).reshape(-1, 2, 2)
        with open(out / "meta.json") as fh:
            got = json.load(fh)["diagnostics"]["det_error"]
        assert 0.0 < got == float(np.max(np.abs(det2(J) - 1.0)))


class TestKDetErr:
    """`rh_field_grid` reports the det K+ error that `jump_base` refuses
    above DET_TOL, and the det J0 error."""

    ARGS = (ATT, np.linspace(0.0, 10.0, 3), np.linspace(0.0, 5.0, 2))

    def test_desk_reports_both(self):
        _, diag = rh_field_grid(desk_scenario(), *self.ARGS)
        for key in ("K_det_err", "J0_det_err"):
            err = diag[key]
            assert type(err) is float and 0.0 <= err <= DET_TOL

    def test_singular_k_refusal_unchanged(self, monkeypatch):
        # a K+ scaled off det 1 is refused as before, with the message of
        # the per-stamp reference on the same K+
        solve, seen = pipeline.spectral_data, []

        def scaled(*a, **kw):
            table, K = solve(*a, **kw)
            seen.append((a[2], 1.001 * K))
            return table, 1.001 * K

        monkeypatch.setattr(pipeline, "spectral_data", scaled)
        with pytest.raises(SingularK) as new:
            rh_field_grid(desk_scenario(), *self.ARGS)
        ev, K = seen[0]
        with pytest.raises(SingularK) as ref:
            jump_mixed_reference(0.0, 0.0, ev, K)
        assert str(new.value) == str(ref.value)
        assert "det K+ deviates" in str(new.value)


class TestJumpWholeline:
    def test_zero_reflection(self):
        lam = np.linspace(-5, 5, 21)
        J = jump_wholeline(1.0, 2.0, lam, np.zeros(21), ATT)
        assert np.max(np.abs(J - np.eye(2))) < 1e-14

    def test_det_identity(self):
        lam = np.linspace(-5, 5, 21)
        r = 0.5 * np.exp(-lam ** 2) * np.exp(1j * lam)
        J = jump_wholeline(0.7, 3.0, lam, r, ATT)
        assert det_err(J) < 1e-12

    def test_sit_decay_ratio(self):
        lam = np.array([0.0])
        r = np.array([0.5 + 0.0j])
        j5 = jump_wholeline(0.0, 5.0, lam, r, ATT)
        j10 = jump_wholeline(0.0, 10.0, lam, r, ATT)
        ratio = abs(j10[0, 0, 1]) / abs(j5[0, 0, 1])
        # exponent pi n(0) x / 2 with n(0) = -1/pi: e^{-2.5}
        assert abs(ratio - np.exp(-2.5)) < 1e-10

    def test_amplifier_growth(self):
        amp = BroadeningProfile.lorentzian(1.0, sign=+1)
        lam = np.array([0.0])
        r = np.array([0.5 + 0.0j])
        j5 = jump_wholeline(0.0, 5.0, lam, r, amp)
        j10 = jump_wholeline(0.0, 10.0, lam, r, amp)
        ratio = abs(j10[0, 0, 1]) / abs(j5[0, 0, 1])
        assert abs(ratio - np.exp(2.5)) < 1e-9

    @pytest.mark.parametrize("lam0", [0.0, 1.0, -1.0])
    def test_decay_slope(self, lam0):
        lam = np.array([lam0])
        r = np.array([0.4 - 0.2j])
        xs = np.linspace(2.0, 10.0, 17)
        dist = [np.max(np.abs(jump_wholeline(0.3, x, lam, r, ATT) - np.eye(2)))
                for x in xs]
        slope = np.polyfit(xs, np.log(dist), 1)[0]
        want = np.pi * ATT.n(lam0) / 2.0
        assert abs(slope - want) < 0.05 * abs(want)

    def test_posdef_certificate_value(self):
        lam = np.array([0.0])
        J = jump_wholeline(0.0, 0.0, lam, np.array([0.5 + 0j]), ATT)
        want = 1.125 - np.sqrt(0.5 ** 2 + 0.125 ** 2)
        assert abs(posdef_check(J) - want) < 1e-12

    def test_posdef_all_stamps(self):
        lam = np.linspace(-5, 5, 41)
        r = 0.8 * np.exp(-lam ** 2 / 2)
        for (t, x) in ((0.0, 0.0), (2.0, 7.0), (9.0, 1.0)):
            J = jump_wholeline(t, x, lam, r, ATT)
            assert posdef_check(J) > 0.0


class TestJumpOval:
    def test_unit_modulus_algebra(self):
        z = np.array([0.3 + 0.4j])
        a = np.array([np.exp(0.3j)])
        b = np.array([np.exp(-1.1j)])
        J = jump_oval(z, a, b, 0.0, 0.0, np.array([0.5j]))
        want = np.array([[0, -b[0] / a[0]], [a[0] / b[0], 1]])
        assert np.max(np.abs(J[0] - want)) < 1e-14
        assert det_err(J) < 1e-14

    def test_conjugate_node_form(self):
        z = np.array([0.3 - 0.4j])
        a = np.array([1.2 + 0.1j])      # values at the reflected point z*
        b = np.array([0.4 - 0.8j])
        J = jump_oval(z, a, b, 0.0, 0.0, np.array([-0.5j]))
        want = np.array([[1, -np.conj(a[0]) / np.conj(b[0])],
                         [np.conj(b[0]) / np.conj(a[0]), 0]])
        assert np.max(np.abs(J[0] - want)) < 1e-14

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
        A, B, _, _ = continued_columns(sc, amp_prof, z_up,
                                       eta_boundary(amp_prof, np.zeros(1)))
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
        J = jump_oval(z, a, b, t=1.3, x=0.7, eta_vals=eta)
        assert schwartz_error(z, J) < 1e-8
        assert det_err(J) < 1e-10
