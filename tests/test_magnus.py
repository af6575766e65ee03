"""The block-batched sixth-order Magnus kernel against the one-step
matrix-form reference (`references.magnus_propagate`): same scheme, same
nodes, so the two agree to the kernel's rounding (the reference runs in
extended precision); its order, and the x-grid's nodes on the rho0
table's rows."""

import dataclasses

import numpy as np
import pytest

import references as ref
from mbrh import spectral
from mbrh.broadening import (LAM_WINDOW, BroadeningProfile, eta_boundary,
                             eta_eval, profile_normalize)
from mbrh.lax import medium_transform
from mbrh.mat2 import dagger, det2, diag_exp, inv2
from mbrh.rhsolver import contour_build
from mbrh.spectral import (
    MAGNUS_BLOCK,
    MAGNUS_WIDTH,
    T_STEP,
    X_STEP,
    _refined_grid,
    _t_generator,
    _x_grid,
    continued_columns,
    jost_phi,
    jost_w,
    magnus_propagate,
    xbank_propagate,
)

LOR = BroadeningProfile.lorentzian(1.0, sign=-1)
TOL = 1e-13
SCENARIOS = {"desk": ref.desk_scenario, "excited": ref.excited_scenario}


def rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def run_ev():
    """The `EtaValues` of a run's nodes, those of the default contour."""
    return eta_boundary(LOR, contour_build().nodes)


def column_terminal(z, row):
    out = np.zeros((z.size, 2, 1), dtype=complex)
    out[:, row, 0] = 1.0
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_jost_phi_matches_matrix_form(name):
    sc = SCENARIOS[name]()
    lam = np.linspace(*LAM_WINDOW, 101)
    Phi0 = jost_phi(sc, lam)
    want = ref.magnus_propagate(ref.t_generator(sc, lam),
                                _refined_grid([0.0, sc.T], T_STEP),
                                diag_exp(-1j * lam * sc.T))[0]
    assert rel(Phi0, want) <= TOL
    assert np.max(np.abs(det2(Phi0) - 1.0)) <= TOL


def test_phi_continuation_matches_matrix_form():
    # the shift path: v' = (U - i z) v, Im z from 1e-3 to 5
    sc = ref.desk_scenario()
    z = np.linspace(-5.0, 5.0, 9) + 1j * np.geomspace(1e-3, 5.0, 9)
    A, B, _, _ = continued_columns(sc, LOR, z, run_ev())
    want = ref.magnus_propagate(ref.t_generator(sc, z, -1j * z),
                                _refined_grid([0.0, sc.T], T_STEP),
                                column_terminal(z, 1))[0]
    assert rel(A, want[:, 1, 0]) <= TOL
    assert rel(B, want[:, 0, 0]) <= TOL


def _check_xbank(sc, profile, lam, x_out, banks=("+", "-")):
    """The sweep of w+ (`jost_w`), and w- = (w+^{-1})^dagger derived from
    it, against each bank's own one-step matrix-form propagation from
    e^{i L eta_pm sigma_3}, with its medium term from complex channels
    (`references.medium_transform_bank`)."""
    ev = eta_boundary(profile, lam)
    w = jost_w(sc, profile, ev, x_out)
    assert w.shape == (x_out.size, lam.size, 2, 2)
    grid = _x_grid(sc, x_out, X_STEP)
    for bank in banks:
        eta, g = ((ev.eta_plus, ev.g_plus) if bank == "+"
                  else (ev.eta_minus, ev.g_minus))
        if sc.medium_is_trivial:
            G = g[:, None, None] * ref.SIGMA3
        else:
            G = lambda x: ref.medium_transform_bank(
                profile, lam, ev, bank, sc.medium_slice(x, lam))
        traj = ref.magnus_propagate(ref.x_generator(sc, lam, G), grid,
                                    diag_exp(1j * sc.L * eta))
        got = w if bank == "+" else dagger(inv2(w))
        assert rel(got, traj[np.searchsorted(grid, x_out)]) <= TOL
    assert np.max(np.abs(det2(w) - 1.0)) <= TOL
    return grid


@pytest.mark.parametrize("bank", ["+", "-"])
def test_xbank_matches_matrix_form(bank):
    # output depths off the block boundaries, unsorted, L included
    sc = ref.excited_scenario()
    lam = np.linspace(*LAM_WINDOW, 161)
    grid = _check_xbank(sc, LOR, lam, np.array([1.3, 0.0, 0.641, 2.0, 0.37]),
                        (bank,))
    assert (grid.size - 1) % MAGNUS_BLOCK != 0


@pytest.mark.parametrize("medium", ["tabulated", "unexcited", "complex_rho"])
def test_stacked_xbank_other_media(monkeypatch, medium):
    # a tabulated line under the excited medium, the constant medium
    # terms g+- sigma_3 of an unexcited medium with E0 != 0, and a
    # complex rho0, whose g21 differs from the p.v. part of g12; 241
    # nodes on half of MAGNUS_WIDTH cap the blocks at 12 steps, below
    # MAGNUS_BLOCK
    monkeypatch.setattr(spectral, "MAGNUS_WIDTH", MAGNUS_WIDTH // 2)
    lam = np.linspace(*LAM_WINDOW, 241)
    if medium == "tabulated":
        profile = profile_normalize(BroadeningProfile.tabulated(
            lam, np.exp(-lam ** 2 / 2)))
        sc = ref.excited_scenario()
    elif medium == "complex_rho":
        profile, sc = LOR, ref.excited_scenario(complex_rho=True)
    else:
        profile = LOR
        sc = dataclasses.replace(ref.excited_scenario(), rho0=None)
        assert not sc.field_free
    _check_xbank(sc, profile, lam, np.array([0.0, 0.5, 1.7, 2.0]))


def _chirped(s, amp, center, width, chirp):
    s = np.asarray(s, dtype=float)
    return amp * np.exp(-((s - center) / width) ** 2 + 1j * chirp * s)


MINUS_LAM = np.linspace(-12.0, 12.0, 97)
MINUS_CASES = {
    "desk_E0": lambda: (dataclasses.replace(
        ref.desk_scenario(), E0=lambda x: _chirped(x, 0.3, 2.5, 0.5, 0.0)), LOR),
    "complex_rho0": lambda: (ref.excited_scenario(complex_rho=True), LOR),
    "amplifier": lambda: (ref.excited_scenario(),
                          BroadeningProfile.lorentzian(1.0, sign=+1)),
    "chirped": lambda: (dataclasses.replace(
        ref.excited_scenario(complex_rho=True),
        E_in=lambda t: _chirped(t, 0.8, 3.0, 0.7, 0.4),
        E0=lambda x: _chirped(x, 0.3, 1.0, 0.3, 0.7)), LOR),
    "tabulated": lambda: (ref.excited_scenario(), profile_normalize(
        BroadeningProfile.tabulated(MINUS_LAM, np.exp(-MINUS_LAM ** 2 / 4)))),
}


@pytest.mark.parametrize("case", sorted(MINUS_CASES))
def test_derived_minus_bank_matches_its_own_sweep(case):
    # w- = (w+^{-1})^dagger from V- = -V+^dagger: the lower bank, which no
    # run propagates, against its own sweep from e^{i L eta- sigma_3}
    # with the medium term's - limit; the chirped pulses (E0 complex)
    # and the complex rho0 make data that do not mirror under lam -> -lam
    sc, profile = MINUS_CASES[case]()
    _check_xbank(sc, profile, MINUS_LAM, np.array([0.0, 0.6, sc.L]), ("-",))


@pytest.mark.parametrize("x_out", [[1.0, 3.0], [-0.5], [np.nan]])
def test_xbank_refuses_depths_outside_the_medium(x_out):
    # the terminal value belongs at x = L; with x_out = 3 on L = 2 it was
    # put at x = 3, and a+ moved by 2.0 from its value at x_out = 1
    sc = ref.excited_scenario()
    ev = eta_boundary(LOR, np.linspace(-4.0, 4.0, 9))
    terminal = diag_exp(1j * sc.L * ev.eta_plus)
    for case in (sc, dataclasses.replace(sc, E0=lambda x: 0.0 * x, rho0=None)):
        with pytest.raises(ValueError, match="x_out must lie in"):
            xbank_propagate(case, LOR, ev, terminal, np.array(x_out))


def test_wplus_continuation_matches_matrix_form():
    sc = ref.excited_scenario()
    z = np.array([0.3 + 0.5j, -1.0 + 0.2j, 2.0 + 1.0j, 0.1 + 1e-3j, -3.0 + 5.0j])
    ev = run_ev()
    _, _, alpha, beta = continued_columns(sc, LOR, z, ev)
    transform = medium_transform(LOR, ev.lam, z)
    G = lambda x: transform(sc.medium_slice(x, ev.lam))
    want = ref.magnus_propagate(
        ref.x_generator(sc, z, G, -1j * eta_eval(LOR, z)),
        _x_grid(sc, [], X_STEP), column_terminal(z, 0))[0]
    assert rel(alpha, want[:, 0, 0]) <= TOL
    assert rel(beta, want[:, 1, 0]) <= TOL


@pytest.mark.parametrize("steps", sorted({1, MAGNUS_BLOCK - 1, MAGNUS_BLOCK,
                                          MAGNUS_BLOCK + 1, 63, 64, 65, 1000}))
def test_block_boundaries(steps):
    # width MAGNUS_WIDTH holds blocks to MAGNUS_BLOCK steps on 5 columns;
    # by default 5 columns take all the steps in one block
    sc = ref.desk_scenario()
    rng = np.random.default_rng(steps)
    z = rng.normal(size=5) + 1j * rng.uniform(0.0, 2.0, size=5)
    s_grid = np.linspace(0.0, 4.0, steps + 1)
    terminal = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    at = np.unique([0, steps // 3, steps - 1, steps])
    want = ref.magnus_propagate(ref.t_generator(sc, z, -1j * z), s_grid,
                                terminal)
    sweep = lambda **kw: magnus_propagate(_t_generator(sc, z), s_grid, terminal,
                                          shift=-1j * z, **kw)
    got = sweep(at=at, width=MAGNUS_WIDTH)
    assert rel(got, want[at]) <= TOL
    end = sweep(width=MAGNUS_WIDTH)
    assert np.array_equal(end, got[0])
    # every node kept, as on a dense x lattice
    every = sweep(at=np.arange(steps + 1), width=MAGNUS_WIDTH)
    assert rel(every, want) <= TOL
    assert np.array_equal(every[0], end)
    assert rel(sweep(), want[0]) <= TOL


@pytest.mark.parametrize("equation", ["t", "x"])
def test_sixth_order_convergence(equation):
    # halving the step divides the error by about 2^6; a fourth-order
    # step would give about 16.  The x steps divide the rho0 rows' 0.05
    lam = np.linspace(-10.0, 10.0, 21)
    if equation == "t":
        sc = ref.desk_scenario()
        solve = lambda h: jost_phi(sc, lam, step=h)
        steps = (0.1, 0.05, 0.00625)
    else:
        sc, ev = ref.excited_scenario(), eta_boundary(LOR, lam)
        solve = lambda h: jost_w(sc, LOR, ev, step=h)[0]
        steps = (0.05, 0.025, 0.003125)
    want = solve(steps[-1])
    coarse, fine = (np.max(np.abs(solve(h) - want)) for h in steps[:2])
    assert 0.8 * 2 ** 6 < coarse / fine < 1.25 * 2 ** 6


def test_x_grid_has_a_node_on_every_table_row():
    # the rows read 0.15000000000000002 and the like; a row that rounding
    # moved off a target or off a step is merged, not given a short step
    sc = ref.excited_scenario()
    x_out = np.array([0.0, 0.15, 0.5, 1.35, 2.0])
    grid = _x_grid(sc, x_out, X_STEP)
    assert np.all(np.isin(x_out, grid))
    assert np.allclose(np.diff(grid), X_STEP, rtol=1e-9, atol=0.0)
    gap = np.min(np.abs(np.array(sc.rho0_x)[:, None] - grid), axis=1)
    assert np.max(gap) < 1e-15
    # a step that does not divide the rows' spacing: three of 1/60 each
    # between neighbouring rows, none shorter
    steps = np.diff(_x_grid(sc, x_out, 0.02))
    assert 0.05 / 3 * (1 - 1e-9) < steps.min() and steps.max() < 0.02
