"""Direct method-of-lines integrator and its conservation properties."""

import numpy as np
import pytest
from scipy.integrate import quad

from mbrh.broadening import (BroadeningProfile, average_weights,
                             profile_normalize)
from mbrh.direct import SCRATCH, bloch_rotation, integrate_direct
from mbrh.errors import CFLViolation, ConstraintDrift
from mbrh.mat2 import dagger
from mbrh.rhsolver import soliton_closed_form
from mbrh.spectral import ScenarioData
from references import (bloch_rotation_fresh, coupling_matrix, depthwise,
                        desk_scenario, excited_scenario, expm2,
                        integrate_direct_reference, medium_history,
                        soliton_evaluate_M, trivial_scenario)

ZERO = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
LOR = BroadeningProfile.lorentzian(1.0, sign=-1)
AMP = BroadeningProfile.lorentzian(1.0, sign=+1)
_SKEW_GRID = np.linspace(-10.0, 10.0, 201)
SKEWED = profile_normalize(BroadeningProfile.tabulated(
    _SKEW_GRID, np.exp(-(_SKEW_GRID - 0.7) ** 2 / 2)))


def reference_rotation(E_mid, lam, h, rho, N):
    """R F R^dagger with R = expm2(h A), A = -i lam sigma3 - H(E_mid)."""
    E_mid = np.asarray(E_mid, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(E_mid.shape + (1,) if E_mid.ndim else (1,),
                                lam.shape, np.shape(rho), np.shape(N))
    A = np.zeros(shape + (2, 2), dtype=complex)
    A[..., 0, 0] = -1j * lam
    A[..., 1, 1] = 1j * lam
    Hm = coupling_matrix(E_mid)
    A[..., 0, 1] -= Hm[..., None, 0, 1]
    A[..., 1, 0] -= Hm[..., None, 1, 0]
    R = expm2(h * A)
    F = np.zeros(shape + (2, 2), dtype=complex)
    F[..., 0, 0] = N
    F[..., 1, 1] = -N
    F[..., 0, 1] = rho
    F[..., 1, 0] = np.conj(rho)
    Fn = R @ F @ dagger(R)
    return Fn[..., 0, 1], Fn[..., 0, 0].real


def random_bloch(rng, shape):
    th = rng.uniform(0, np.pi, shape)
    phi = rng.uniform(0, 2 * np.pi, shape)
    return np.sin(th) * np.exp(1j * phi), np.cos(th)


class TestRhoAverage:
    """<rho> = int n rho dlam as the integrator forms it, rho @ w."""

    def test_zero(self):
        lam = np.linspace(-10, 10, 201)
        rho = np.zeros_like(lam, dtype=complex)
        assert rho @ average_weights(LOR, lam) == 0.0

    def test_constant_attenuator(self):
        lam = np.linspace(-10, 10, 201)
        c = 0.3 - 0.7j
        rho = np.full(lam.shape, c)
        assert abs(rho @ average_weights(LOR, lam) - (-c)) < 1e-12

    def test_gaussian_against_quadrature(self):
        lam = np.linspace(-40, 40, 4001)
        prof = BroadeningProfile.lorentzian(1.0, sign=+1)
        rho = np.exp(-lam ** 2).astype(complex)
        want = quad(lambda s: (1 / np.pi) / (s * s + 1) * np.exp(-s * s),
                    -np.inf, np.inf)[0]
        assert abs(rho @ average_weights(prof, lam) - want) < 1e-8


class TestBlochRotation:
    def test_rabi_period(self):
        # constant field E=2 at lam=0: the (rho, N) rotation has
        # period 2 pi / |E| = pi
        rho, N = 0.0 + 0.0j, 1.0
        h = np.pi / 100
        for _ in range(100):
            rho, N = bloch_rotation_fresh(2.0, 0.0, h, rho, N)
        assert abs(N - 1.0) < 1e-8 and abs(rho) < 1e-8
        # quarter period: rho = sin(2t) = 1, N = cos(2t) = 0
        rho, N = bloch_rotation_fresh(2.0, 0.0, np.pi / 4, 0.0j, 1.0)
        assert abs(rho - 1.0) < 1e-12 and abs(N) < 1e-12

    def test_sphere_preserved_random(self):
        rng = np.random.default_rng(3)
        lam = rng.normal(size=50)
        phi = rng.uniform(0, 2 * np.pi, 50)
        th = rng.uniform(0, np.pi, 50)
        rho = np.sin(th) * np.exp(1j * phi)
        N = np.cos(th)
        r2, N2 = bloch_rotation_fresh(0.7 - 0.2j, lam, 0.3, rho, N)
        assert np.max(np.abs(N2 ** 2 + np.abs(r2) ** 2 - 1.0)) < 1e-13


class TestClosedFormAgainstExpm:
    """The Cayley-Klein rotation against the 2x2 exponential and conjugation."""

    @staticmethod
    def assert_matches(E, lam, h, rho, N):
        r1, N1 = bloch_rotation_fresh(E, lam, h, rho, N)
        r0, N0 = reference_rotation(E, lam, h, rho, N)
        assert np.max(np.abs(r1 - r0)) < 1e-14
        assert np.max(np.abs(N1 - N0)) < 1e-14
        assert np.isrealobj(N1)

    def test_scalar_field_and_detuning(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            E = complex(rng.normal(), rng.normal())
            lam = float(rng.normal(scale=3.0))
            rho, N = random_bloch(rng, ())
            self.assert_matches(E, lam, 0.1, complex(rho), float(N))

    def test_field_per_x_against_detuning_grid(self):
        rng = np.random.default_rng(12)
        E = rng.normal(size=31) + 1j * rng.normal(size=31)
        lam = np.linspace(-8.0, 8.0, 65)
        rho, N = random_bloch(rng, (31, 65))
        self.assert_matches(E, lam, 0.05, rho, N)

    def test_zero_field_at_zero_detuning(self):
        # w = 0: the rotation is the identity there
        rng = np.random.default_rng(13)
        E = np.array([0.0, 0.5 - 0.3j, 0.0])
        lam = np.linspace(-2.0, 2.0, 9)            # holds lam = 0
        rho, N = random_bloch(rng, (3, 9))
        self.assert_matches(E, lam, 0.2, rho, N)
        r1, N1 = bloch_rotation_fresh(E, lam, 0.2, rho, N)
        assert r1[0, 4] == rho[0, 4] and N1[0, 4] == N[0, 4]
        assert np.all(np.isfinite(r1)) and np.all(np.isfinite(N1))

    def test_large_field_step(self):
        # |E| h = 12: about a full turn of the Bloch vector in one step
        rng = np.random.default_rng(14)
        E = 6.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
        lam = rng.normal(size=21)
        rho, N = random_bloch(rng, (7, 21))
        self.assert_matches(E, lam, 2.0, rho, N)

    @pytest.mark.parametrize("turns", [1, 3])
    def test_angle_through_the_half_angle_pole(self, turns):
        # h w within 1e-9 of pi and 3 pi: tan(hw/2) passes its pole there
        rng = np.random.default_rng(15)
        h = 0.05
        delta = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
        lam = (turns * np.pi + delta) / h
        E = np.array([0.0, 1e-5 * (1 + 1j)])
        rho, N = random_bloch(rng, (2, lam.size))
        self.assert_matches(E, lam, h, rho, N)


SENTINEL = 7.25          # fills an output that must stay untouched


def rotate(E, lam, h, rho, N, keep=(True, True, True)):
    """`bloch_rotation` on fresh arrays filled with SENTINEL: returns the
    three output arrays, those not kept passed to it as None."""
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(np.shape(E) + (1,) if np.ndim(E) else (),
                                lam.shape, np.shape(rho), np.shape(N))
    out = [np.full(shape, SENTINEL) for _ in range(3)]
    bloch_rotation(E, lam, h, (np.real(rho), np.imag(rho)),
                   np.asarray(N, dtype=float),
                   out=[o if k else None for o, k in zip(out, keep)],
                   work=[np.empty(shape) for _ in range(SCRATCH)])
    return out


def real_field_cases():
    """(E real, lam, h, rho, N): a scalar field and detuning, a field per
    x against a detuning grid, and zero fields at lam = 0 (w = 0)."""
    rng = np.random.default_rng(21)
    rho, N = random_bloch(rng, ())
    yield 0.7, 1.3, 0.1, complex(rho), float(N)
    rho, N = random_bloch(rng, (31, 65))
    yield rng.normal(size=31), np.linspace(-8.0, 8.0, 65), 0.05, rho, N
    rho, N = random_bloch(rng, (3, 9))
    yield np.array([0.0, -0.5, 0.0]), np.linspace(-2.0, 2.0, 9), 0.2, rho, N


class TestRealField:
    """A real E_mid has no Omega_x term; what it computes is what its
    complex twin (imaginary part 0) computes, bit for bit."""

    @pytest.mark.parametrize("case", list(real_field_cases()),
                             ids=["scalar", "per_x", "zero_w"])
    def test_bits_of_the_complex_twin(self, case):
        E, lam, h, rho, N = case
        real = rotate(np.asarray(E, dtype=float), lam, h, rho, N)
        twin = rotate(np.asarray(E, dtype=complex), lam, h, rho, N)
        for got, want in zip(real, twin):
            assert got.tobytes() == want.tobytes()
        # and both against the 2 x 2 exponential
        r0, N0 = reference_rotation(E, lam, h, rho, N)
        assert np.max(np.abs(real[0] + 1j * real[1] - r0)) < 1e-14
        assert np.max(np.abs(real[2] - N0)) < 1e-14

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("keep", [(True, False, False),
                                      (False, True, False),
                                      (True, True, False),
                                      (False, False, True)])
    def test_none_output_is_left_alone(self, dtype, keep):
        # an output passed as None is not formed: its array keeps the
        # sentinel, and the outputs formed are those of the full call
        E, lam, h, rho, N = list(real_field_cases())[1]
        E = E * (1.0 + 0.3j) if dtype is complex else E
        full = rotate(E, lam, h, rho, N)
        part = rotate(E, lam, h, rho, N, keep)
        for k, got, want in zip(keep, part, full):
            if k:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.all(got == SENTINEL)


def gaussian_scenario():
    return ScenarioData(T=8.0, L=2.0,
                        E_in=lambda t: 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2),
                        E0=ZERO, rho0=None)


class TestIntegrateDirect:
    def test_trivial_stays_trivial(self):
        sc = trivial_scenario(T=1.0, L=1.0)
        lam = np.linspace(-3, 3, 13)
        st = integrate_direct(sc, LOR, lam, dt=0.1)
        assert np.max(np.abs(st.E)) == 0.0
        assert st.rho.shape == st.N.shape == (st.x_grid.size, lam.size)
        rho, N = medium_history(sc, st)
        assert np.max(np.abs(rho)) == 0.0
        # diagonal unitary conjugation leaves only phase roundoff in N
        assert np.max(np.abs(N - 1.0)) < 1e-13

    def test_cfl_guard(self):
        sc = trivial_scenario(T=1.0, L=1.0)
        with pytest.raises(CFLViolation):
            integrate_direct(sc, LOR, np.linspace(-1, 1, 5), dt=0.3)

    def test_nan_field_refused(self):
        # a NaN fails both sphere tests instead of passing them
        nan_pulse = lambda t: np.full(np.shape(t), np.nan, dtype=complex)
        sc = ScenarioData(T=1.0, L=1.0, E_in=nan_pulse, E0=ZERO, rho0=None)
        with pytest.raises(ConstraintDrift):
            integrate_direct(sc, LOR, np.linspace(-3, 3, 13), dt=0.1)

    def test_conservation(self):
        st = integrate_direct(gaussian_scenario(), LOR,
                              np.linspace(-8, 8, 65), dt=0.05)
        assert st.diagnostics["max_step_drift"] <= 1e-10
        assert st.diagnostics["conservation_error"] <= 1e-7

    def test_conservation_diagnostic_matches_history(self):
        # the running maximum over slices, taken as they are made, equals
        # the maximum over the history rebuilt from the field, and the
        # rebuilt last slice is the one the run returns
        rng = np.random.default_rng(5)
        lam = np.linspace(-4, 4, 17)
        table = random_bloch(rng, (5, lam.size))[0] * 0.9

        def rho0(x, lam_):
            return table[min(int(x / 0.5), 4)]

        sc = ScenarioData(T=2.0, L=2.0, E_in=gaussian_scenario().E_in,
                          E0=ZERO, rho0=depthwise(rho0))
        st = integrate_direct(sc, LOR, lam, dt=0.1)
        rho, N = medium_history(sc, st)
        assert np.array_equal(rho[-1], st.rho) and np.array_equal(N[-1], st.N)
        # |rho|^2 in components, as the integrator forms it
        history = max(float(np.max(np.abs(
            Nk ** 2 + (rk.real ** 2 + rk.imag ** 2) - 1.0)))
            for rk, Nk in zip(rho, N))
        assert st.diagnostics["conservation_error"] == history > 0.0

    def test_boundary_and_initial_rows(self):
        sc = gaussian_scenario()
        st = integrate_direct(sc, LOR, np.linspace(-8, 8, 33), dt=0.1)
        assert np.max(np.abs(st.E[:, 0] - sc.E_in(st.t_grid))) == 0.0
        assert np.max(np.abs(st.E[0, 1:])) == 0.0

    def test_self_convergence_order(self):
        sc = gaussian_scenario()
        lam = np.linspace(-8, 8, 33)
        sols = [integrate_direct(sc, LOR, lam, dt=h)
                for h in (0.1, 0.05, 0.025)]
        # compare on the shared coarse lattice
        E_f = sols[2].E[::4, ::4]
        E_m = sols[1].E[::2, ::2]
        E_c = sols[0].E
        err_cm = np.max(np.abs(E_c - E_m))
        err_mf = np.max(np.abs(E_m - E_f))
        order = np.log2(err_cm / err_mf)
        assert order > 1.8

    def test_soliton_launch(self):
        # boundary trace and initial medium from the closed form shifted
        # so the pulse enters the medium from the boundary
        prof = BroadeningProfile.delta_approx(1e-3, sign=-1)
        poles = [(0.5j, 1.0 + 0.0j)]
        t0 = 8.0

        def E_cl(t, x):
            """Closed-form field on t and x broadcast together."""
            return soliton_closed_form(poles, prof, np.asarray(t) - t0, x)[0]

        def rho0(x, lam):
            M = soliton_evaluate_M(poles, prof, -t0, x,
                                   np.asarray(lam, dtype=complex))
            sig = np.diag([1.0, -1.0]).astype(complex)
            F = M @ sig @ np.conj(np.swapaxes(M, -1, -2))
            return F[..., 0, 1]

        sc = ScenarioData(T=16.0, L=2.0, E_in=lambda t: E_cl(t, 0.0),
                          E0=lambda x: E_cl(0.0, x), rho0=depthwise(rho0))
        lam = np.linspace(-1e-3, 1e-3, 9)
        st = integrate_direct(sc, prof, lam, dt=0.02)
        want = E_cl(st.t_grid, 2.0)
        err = np.max(np.abs(st.E[:, -1] - want)) / np.max(np.abs(want))
        assert err < 1e-2


def compact_scenario(T=4.0):
    """Pulse entering a medium whose initial field vanishes from x = 2 on,
    the middle of the lattice."""
    E0 = lambda x: np.where(np.asarray(x) < 2.0,
                            0.3 * np.sin(0.5 * np.pi * np.asarray(x)) ** 2, 0.0) + 0j
    return ScenarioData(T=T, L=4.0, E_in=gaussian_scenario().E_in,
                        E0=E0, rho0=None)


def chirped(sc):
    """sc with its boundary pulse chirped by e^{1.5 i t}: E is complex."""
    return ScenarioData(T=sc.T, L=sc.L, E0=sc.E0, rho0=sc.rho0,
                        E_in=lambda t: sc.E_in(t) * np.exp(1.5j * np.asarray(t)))


LAM = np.linspace(-16.0, 16.0, 129)


class TestAgainstReferenceLoop:
    """The in-place step behind the front against the plain loop that
    rotates every column of the full grid with the Cayley-Klein kernel.
    Mirror-symmetric data (real E, symmetric grid, line and medium) are
    stepped on the detunings lam >= 0 only; any other data on all."""

    @pytest.mark.parametrize("make, profile, lam, solved", [
        pytest.param(desk_scenario, LOR, LAM, 65, id="desk_scenario"),
        pytest.param(excited_scenario, LOR, LAM, 65, id="excited_scenario"),
        pytest.param(compact_scenario, LOR, LAM, 65, id="compact_scenario"),
        pytest.param(desk_scenario, AMP, LAM, 65, id="amplifier"),
        pytest.param(desk_scenario, LOR, np.linspace(-16.0, 16.0, 128), 64,
                     id="even_grid_no_zero_node"),
        pytest.param(desk_scenario, LOR, np.linspace(-20.0, 20.0, 401), 201,
                     id="default_cli_grid"),
        pytest.param(lambda: chirped(desk_scenario()), LOR, LAM, 129,
                     id="chirped"),
        pytest.param(lambda: excited_scenario(complex_rho=True), LOR, LAM,
                     129, id="complex_rho"),
        pytest.param(desk_scenario, LOR, np.linspace(-16.0, 20.0, 145), 145,
                     id="asymmetric_grid"),
        pytest.param(desk_scenario, SKEWED, LAM, 129, id="skewed_line"),
    ])
    def test_same_field_and_medium(self, make, profile, lam, solved):
        sc = make()
        st = integrate_direct(sc, profile, lam, dt=0.05)
        assert st.diagnostics["nlam_solved"] == solved
        assert st.diagnostics["nlam"] == lam.size
        # a folded run keeps E exactly real; the others have Im E of
        # their own, which a fold would have dropped
        assert (np.max(np.abs(st.E.imag)) > 0.0) == (solved == lam.size)
        E, rho, N, total = integrate_direct_reference(sc, profile, lam, 0.05)
        for got, want in ((st.E, E), (st.rho, rho), (st.N, N)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the Rodrigues step keeps the sphere at least as well
        assert st.diagnostics["conservation_error"] <= total


class TestCausalFront:
    """Columns the pulse has not reached are never rotated."""

    def test_cells_ahead_of_the_front_are_untouched(self):
        # the boundary pulse moves at unit speed; after 10 steps of 0.1
        # the last rotated column is 10 of 20
        sc = ScenarioData(T=1.0, L=2.0,
                          E_in=lambda t: 0.8 * np.exp(-((t - 0.5) / 0.3) ** 2) + 0j,
                          E0=ZERO, rho0=None)
        lam = np.linspace(-4, 4, 17)
        st = integrate_direct(sc, LOR, lam, dt=0.1)
        assert np.all(st.rho[11:] == 0.0) and np.all(st.N[11:] == 1.0)
        assert np.min(np.abs(st.rho[10])) > 0.0
        steps = np.arange(10)
        # real data on a symmetric grid: 9 of the 17 detunings are stepped
        assert st.diagnostics["nlam_solved"] == 9
        assert st.diagnostics["rotated_cells"] == \
            np.sum(np.minimum(steps + 2, 21)) * 9

    def test_front_starts_behind_the_initial_field(self):
        # E0 vanishes from x = 2 (column 20) on, so the field of row k
        # vanishes beyond column 19 + k, and 10 steps rotate columns up
        # to 29 of 40
        st = integrate_direct(compact_scenario(T=1.0), LOR,
                              np.linspace(-4, 4, 17), dt=0.1)
        for k in range(st.t_grid.size):
            assert np.all(st.E[k, 20 + k:] == 0.0)
            assert np.abs(st.E[k, 19 + k]) > 0.0
        assert np.all(st.rho[30:] == 0.0) and np.all(st.N[30:] == 1.0)
        assert np.min(np.abs(st.rho[29])) > 0.0
