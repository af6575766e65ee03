"""End-to-end acceptance checks for the contour solver and integrator.

Each test prints a single pass/fail line with the measured figure of
merit before asserting, so a full run doubles as a report.
"""

import time
import types

import numpy as np
import pytest

from mbrh.broadening import (
    BroadeningProfile,
    eta_boundary,
    eta_eval,
    gamma_trace,
    profile_normalize,
)
from mbrh.direct import integrate_direct
from mbrh.jump import det_err
from mbrh.pipeline import spectral_data
from mbrh.mat2 import det2
from mbrh.rhsolver import (
    contour_build,
    posdef_check,
    residue_constants,
    sie_solve_block,
    soliton_closed_form,
)
from mbrh.spectral import ScenarioData, a_zeros, jost_phi
from references import (
    depthwise,
    eta_quadrature,
    evaluate_M,
    excited_scenario,
    identity_jump,
    jump_wholeline,
    k_solve,
    mb_residual,
    medium_history,
    mixed_jump,
    reconstruct_F_nodes,
    sie_solve_full,
    solve_stamp,
    soliton_evaluate_M,
    trivial_scenario,
)

LOR = BroadeningProfile.lorentzian(1.0, sign=-1)
SIG3 = np.diag([1.0, -1.0]).astype(complex)


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ----------------------------------------------------------------------
# shared slow scenarios (module scope so criteria can share the runs)
# ----------------------------------------------------------------------

def desk_scenario():
    return ScenarioData(
        T=10.0, L=5.0,
        E_in=lambda t: 0.8 * np.exp(-((np.asarray(t) - 3.0) / 0.7) ** 2)
        + 0j * np.asarray(t),
        E0=lambda x: np.zeros_like(np.asarray(x, dtype=complex)),
        rho0=None)


@pytest.fixture(scope="module")
def desk_direct():
    sc = desk_scenario()
    # the polarization oscillates like e^{-2 i lam t}, so the detuning
    # grid must resolve period pi/T; the Lorentzian tails also matter
    lam = np.linspace(-16.0, 16.0, 257)
    return sc, lam, integrate_direct(sc, LOR, lam, dt=0.025)


@pytest.fixture(scope="module")
def desk_rh(desk_direct):
    from mbrh.pipeline import rh_field_grid
    sc, _, st = desk_direct
    t_vals = st.t_grid[::10]            # 41 stamps in t
    x_vals = st.x_grid[::20]            # 11 stamps in x
    E, diag = rh_field_grid(sc, LOR, t_vals, x_vals)
    return t_vals, x_vals, E, diag


def test_criterion_01_lorentzian_eta_quadrature_vs_closed():
    rng = np.random.default_rng(11)
    z = rng.uniform(-6, 6, 100) + 1j * rng.uniform(0.2, 4.0, 100)
    z[::2] = np.conj(z[::2])
    worst = 0.0
    tic = time.perf_counter()
    for sign in (-1, +1):
        prof = BroadeningProfile.lorentzian(1.0, sign=sign)
        quad = eta_quadrature(prof, z)
        closed = eta_eval(prof, z)
        worst = max(worst, float(np.max(np.abs(quad - closed))))
    dt = time.perf_counter() - tic
    report(1, worst <= 1e-8 and dt < 1.0,
           f"quadrature vs closed-form phase, max err {worst:.2e}, {dt:.2f}s")


def test_criterion_02_eta_jump_identity_all_profiles():
    lam = np.linspace(-12.0, 12.0, 401)
    grid = np.linspace(-12.0, 12.0, 2001)
    tab = profile_normalize(BroadeningProfile.tabulated(
        grid, np.exp(-grid ** 2), sign=-1))
    profiles = [
        BroadeningProfile.lorentzian(1.0, sign=-1),
        BroadeningProfile.lorentzian(0.5, sign=+1),
        BroadeningProfile.rectangular(0.55, sign=-1),
        BroadeningProfile.delta_approx(1e-3, sign=-1),
        tab,
    ]
    worst = 0.0
    for prof in profiles:
        ev = eta_boundary(prof, lam)
        err = np.max(np.abs(ev.eta_plus - ev.eta_minus
                            + 0.5j * np.pi * ev.n))
        worst = max(worst, float(err))
    report(2, worst <= 1e-10,
           f"boundary jump identity on 401-grid, 5 profiles, max err {worst:.2e}")


def test_criterion_03_delta_limit_curve_and_lorentzian_peak():
    curve = gamma_trace(BroadeningProfile.delta_approx(1e-3, sign=+1),
                        lam_window=(-0.6, 0.6), n_scan=401)
    radii = np.abs(curve.points)
    circ_err = float(np.max(np.abs(radii - 0.5))) if radii.size else np.inf
    lor = gamma_trace(BroadeningProfile.lorentzian(1.0, sign=+1))
    want = 0.5 * (np.sqrt(2.0) - 1.0)
    peak_err = abs(lor.nu_max - want)
    report(3, circ_err <= 1e-2 and peak_err <= 1e-6,
           f"narrow-line curve vs half circle {circ_err:.2e}, "
           f"Lorentzian curve peak err {peak_err:.2e}")


def test_criterion_04_trivial_scenario_end_to_end():
    tic = time.perf_counter()
    sc = trivial_scenario(T=10.0, L=5.0)
    contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                            nodes_per_panel=12)
    lam = contour.nodes
    eye = np.broadcast_to(np.eye(2, dtype=complex),
                          lam.shape + (2, 2)).copy()
    t_vals = np.linspace(0.0, sc.T, 10)
    x_vals = np.linspace(0.0, sc.L, 10)
    _, Kp, Km = k_solve(sc, LOR, lam, eye, eye, x_out=x_vals)
    ev = eta_boundary(LOR, lam)
    jerr = 0.0
    emax = 0.0
    for t in t_vals:          # one block of stamps per t
        J = np.stack([mixed_jump(t, x, ev, Kp[ix], Km[ix])
                      for ix, x in enumerate(x_vals)])
        jerr = max(jerr, float(np.max(np.abs(J - np.eye(2)))))
        for res in sie_solve_block(contour, J):
            emax = max(emax, abs(res.E))
    dt = time.perf_counter() - tic
    report(4, jerr <= 1e-10 and emax <= 1e-10 and dt < 10.0,
           f"trivial 10x10 lattice: |J-I| {jerr:.2e}, |E| {emax:.2e}, {dt:.1f}s")


def test_criterion_05_unimodularity_and_symmetry_suite():
    # an excited medium with a complex rho0: the reductions below then
    # check the conjugate medium term g21 of the x-sweep
    medium = excited_scenario(complex_rho=True)
    sc = ScenarioData(
        T=8.0, L=2.0,
        E_in=lambda t: 0.6 * np.exp(-((np.asarray(t) - 3.0) / 0.6) ** 2)
        + 0j * np.asarray(t),
        E0=medium.E0, rho0=medium.rho0)
    contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                            nodes_per_panel=12)
    lam = contour.nodes
    Phi0 = jost_phi(sc, lam)
    ev = eta_boundary(LOR, lam)
    table, Kp, Km = spectral_data(sc, LOR, ev, x_out=[1.0])
    # det K = det w since the shears S are unimodular
    det_errs = {
        "Phi": float(np.max(np.abs(det2(Phi0) - 1.0))),
        "K+": float(np.max(np.abs(det2(Kp[0]) - 1.0))),
        "K-": float(np.max(np.abs(det2(Km[0]) - 1.0))),
        "T+": table.diagnostics["det_Tp_err"],
        "T-": table.diagnostics["det_Tm_err"],
    }
    J = mixed_jump(2.5, 1.0, ev, Kp[0], Km[0])
    det_errs["J"] = det_err(J)
    Q, _ = sie_solve_full(contour, J)
    z_off = np.array([0.7 + 1.5j, -2.0 + 2.0j, 1.0 - 1.8j])
    M = evaluate_M(Q, contour, J, z_off)
    det_errs["M"] = float(np.max(np.abs(det2(M) - 1.0)))
    det_worst = max(det_errs.values())

    # antidiagonal conjugation symmetry of the Jost matrix entries
    red_err = max(
        float(np.max(np.abs(Phi0[..., 0, 0] - np.conj(Phi0[..., 1, 1])))),
        float(np.max(np.abs(Phi0[..., 1, 0] + np.conj(Phi0[..., 0, 1])))),
        table.diagnostics["reduction_err"])

    # conjugation symmetry of the residue route: M~(z) = s3 conj(M(-conj z)) s3
    # has the jump s3 conj(J(-lam)) s3 (the nodes are symmetric), poles
    # -conj z_j with constants conj c_j, and the field -conj E
    zj, cj = residue_constants([(0.3 + 0.5j, 0.8 - 0.4j)], LOR, 2.5, 1.0)
    mirror = SIG3 @ np.conj(J[::-1]) @ SIG3
    E = solve_stamp(contour, J, (zj, cj)).E
    E_mirror = solve_stamp(contour, mirror, (-np.conj(zj), np.conj(cj))).E
    sym_err = abs(E_mirror + np.conj(E)) / abs(E)
    ok = det_worst <= 1e-6 and red_err <= 1e-8 and sym_err <= 1e-8
    report(5, ok, f"max |det-1| {det_worst:.2e}, reduction sym {red_err:.2e}, "
           f"conjugation sym {sym_err:.2e}")


def test_criterion_06_posdef_randomized_attenuators():
    rng = np.random.default_rng(7)
    lam = np.linspace(-14.0, 14.0, 301)
    worst = np.inf
    for k in range(5):
        r = np.zeros_like(lam, dtype=complex)
        for _ in range(3):
            amp = (rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
            c0 = rng.uniform(-2.0, 2.0)
            w0 = rng.uniform(0.5, 2.0)
            r += amp * np.exp(-((lam - c0) / w0) ** 2)
        prof = (BroadeningProfile.lorentzian(rng.uniform(0.5, 2.0), sign=-1)
                if k % 2 == 0 else
                BroadeningProfile.rectangular(rng.uniform(0.3, 1.0), sign=-1))
        t, x = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        worst = min(worst, posdef_check(jump_wholeline(t, x, lam, r, prof)))
    report(6, worst > 0.0,
           f"min Hermitian-part eigenvalue over 5 random scenarios {worst:.3e}")


def test_criterion_07_reflectionless_sech_pulse():
    T = 32.0
    sc = ScenarioData(
        T=T, L=1.0,
        E_in=lambda t: 2.0 / np.cosh(np.asarray(t) - T / 2)
        + 0j * np.asarray(t),
        E0=lambda x: np.zeros_like(np.asarray(x, dtype=complex)),
        rho0=None)
    lam = np.linspace(-10.0, 10.0, 201)
    B = jost_phi(sc, lam, step=0.02)[..., 0, 1]
    b_max = float(np.max(np.abs(B)))
    contour = contour_build()
    ev = eta_boundary(LOR, contour.nodes)
    table, _, _ = spectral_data(sc, LOR, ev)
    poles, count = a_zeros(sc, LOR, ev, contour, table.a_plus)
    n_zeros = len(poles)
    zerr = abs(poles[0][0] - 0.5j) if n_zeros == 1 else np.inf
    report(7, b_max <= 1e-5 and n_zeros == 1 and zerr <= 1e-4,
           f"|B| max {b_max:.2e}, {n_zeros} zero(s) of a, counted on the "
           f"axis and fitted to {count['fit_residual']:.1e}, "
           f"dist to i/2 {zerr:.2e}")


def test_criterion_08_transparency_decay_exponent():
    lam = np.array([0.0, 1.0, -1.0])
    r = 0.5 * np.exp(-lam ** 2 / 4.0)
    xs = np.linspace(2.0, 10.0, 33)
    worst = 0.0
    rates = []
    for k in range(lam.size):
        norms = []
        for x in xs:
            J = jump_wholeline(0.0, x, lam[k:k + 1], r[k:k + 1], LOR)
            norms.append(np.max(np.abs(J[0] - np.eye(2))))
        slope = -np.polyfit(xs, np.log(norms), 1)[0]
        want = 0.5 * np.pi * abs(LOR.n(lam[k:k + 1])[0])
        rates.append((slope, want))
        worst = max(worst, abs(slope - want) / want)
    report(8, worst <= 0.05,
           f"decay rate vs pi|n|/2 at lam=0,+1,-1, worst rel err {worst:.2e}")


def test_criterion_09_one_soliton_triangle():
    tic = time.perf_counter()
    prof = BroadeningProfile.delta_approx(1e-3, sign=-1)
    poles = [(0.5j, 1.0 + 0.0j)]
    t0 = 8.0

    def E_cl(t, x):
        """Closed-form field on t and x broadcast together."""
        return soliton_closed_form(poles, prof, np.asarray(t) - t0, x)[0]

    def rho0(x, lam):
        M = soliton_evaluate_M(poles, prof, -t0, x,
                               np.asarray(lam, dtype=complex))
        F = M @ SIG3 @ np.conj(np.swapaxes(M, -1, -2))
        return F[..., 0, 1]

    sc = ScenarioData(T=16.0, L=2.0, E_in=lambda t: E_cl(t, 0.0),
                      E0=lambda x: E_cl(0.0, x), rho0=depthwise(rho0))
    lam = np.linspace(-1e-3, 1e-3, 9)
    st = integrate_direct(sc, prof, lam, dt=0.01)
    ts = st.t_grid[::8][:200]
    xs = st.x_grid[:200]
    closed = E_cl(ts[:, None], xs[None, :])
    sup = np.max(np.abs(closed))
    err_direct = np.max(np.abs(st.E[::8][:200, :200] - closed)) / sup

    # contour route: residue conditions with trivial axis jump
    contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                            nodes_per_panel=12)
    tt, xx = [v.ravel() for v in np.meshgrid(ts[::40], xs[::40],
                                              indexing="ij")]
    J = np.broadcast_to(identity_jump(contour), (tt.size, contour.n_nodes, 2, 2))
    out = sie_solve_block(contour, J,
                          residue_constants(poles, prof, tt - t0, xx))
    err_sie = max(abs(res.E - E_cl(t, x)) / sup
                  for res, t, x in zip(out, tt, xx))
    dt = time.perf_counter() - tic
    report(9, err_sie <= 1e-3 and err_direct <= 1e-2 and dt < 300.0,
           f"closed vs contour {err_sie:.2e}, closed vs direct {err_direct:.2e} "
           f"(rel sup, 200x200), {dt:.0f}s")


def test_criterion_10_direct_conservation_and_order():
    sc = ScenarioData(
        T=8.0, L=2.0,
        E_in=lambda t: 0.8 * np.exp(-((np.asarray(t) - 3.0) / 0.7) ** 2)
        + 0j * np.asarray(t),
        E0=lambda x: np.zeros_like(np.asarray(x, dtype=complex)),
        rho0=None)
    lam = np.linspace(-8.0, 8.0, 33)
    sols = [integrate_direct(sc, LOR, lam, dt=h) for h in (0.1, 0.05, 0.025)]
    drift = max(s.diagnostics["max_step_drift"] for s in sols)
    err_cm = np.max(np.abs(sols[0].E - sols[1].E[::2, ::2]))
    err_mf = np.max(np.abs(sols[1].E[::2, ::2] - sols[2].E[::4, ::4]))
    order = float(np.log2(err_cm / err_mf))
    report(10, drift <= 1e-10 and order >= 2.0,
           f"per-step sphere drift {drift:.2e}, self-convergence order {order:.3f}")


def test_criterion_11_mixed_problem_cross_validation(desk_direct, desk_rh):
    tic = time.perf_counter()
    sc, lam, st = desk_direct
    t_vals, x_vals, E_rh, diag = desk_rh
    E_d = st.E[::10][:, ::20]
    rel_l2 = float(np.linalg.norm(E_rh - E_d) / np.linalg.norm(E_d))

    # residual yardstick: the same medium state with the two fields, on
    # the same coarse stencil lattice
    rho, N = medium_history(sc, st, slice(None, None, 20))
    sub = types.SimpleNamespace(
        t_grid=t_vals, x_grid=x_vals, lam_grid=lam,
        E=E_d, rho=rho[::10], N=N[::10])
    hyb = types.SimpleNamespace(
        t_grid=t_vals, x_grid=x_vals, lam_grid=lam,
        E=E_rh, rho=sub.rho, N=sub.N)
    r_ref = mb_residual(sub, LOR)
    r_hyb = mb_residual(hyb, LOR)
    ratio = max(h / max(r, 1e-12) for h, r in zip(r_hyb, r_ref))
    dt = time.perf_counter() - tic
    ok = rel_l2 <= 5e-2 and ratio <= 3.0 and dt < 1800.0
    report(11, ok, f"RH vs direct rel L2 {rel_l2:.2e}, residuals "
           f"{tuple(f'{v:.1e}' for v in r_hyb)} vs stencil reference "
           f"{tuple(f'{v:.1e}' for v in r_ref)} (ratio {ratio:.2f}), "
           f"{diag['n_poles']} poles, {dt:.0f}s")


def test_criterion_12_medium_reconstruction_consistency(desk_direct):
    sc, lam_d, st = desk_direct
    t, x, hx = 4.0, 2.5, 1e-3
    contour = contour_build(window=(-16.0, 16.0), n_panels=24,
                            nodes_per_panel=16)
    lam = contour.nodes
    x_out = np.array([x - hx, x, x + hx])
    ev = eta_boundary(LOR, lam)
    _, Kp, Km = spectral_data(sc, LOR, ev, x_out=x_out)
    Js = [mixed_jump(t, xv, ev, Kp[i], Km[i]) for i, xv in enumerate(x_out)]
    sols = [sie_solve_full(contour, J)[0] for J in Js]
    mask = np.abs(lam) <= 2.5
    lam_out, N, rho = reconstruct_F_nodes(
        lam, sols[1], sols[2], sols[0], Js[1], Js[2], Js[0], LOR, hx,
        node_mask=mask)
    pick = np.linspace(0, lam_out.size - 1, 10).astype(int)
    sphere = float(np.max(np.abs(N[pick] ** 2 + np.abs(rho[pick]) ** 2 - 1.0)))

    it = int(round(t / (st.t_grid[1] - st.t_grid[0])))
    ix = int(round(x / (st.x_grid[1] - st.x_grid[0])))
    rho_col, N_col = medium_history(sc, st, [ix])
    rho_d = (np.interp(lam_out[pick], lam_d, rho_col[it, 0].real)
             + 1j * np.interp(lam_out[pick], lam_d, rho_col[it, 0].imag))
    N_d = np.interp(lam_out[pick], lam_d, N_col[it, 0])
    agree = max(float(np.max(np.abs(rho[pick] - rho_d))),
                float(np.max(np.abs(N[pick] - N_d))))
    report(12, sphere <= 1e-4 and agree <= 5e-2,
           f"sphere constraint at 10 (t,x,lam) samples {sphere:.2e}, "
           f"agreement with direct medium {agree:.2e}")
